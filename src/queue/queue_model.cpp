#include "queue/queue_model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rfc {

QueueModel::QueueModel(double service, double cv2)
    : service_(service), cv2_(cv2)
{
    if (!(service > 0.0) || !std::isfinite(service))
        throw std::invalid_argument(
            "QueueModel: service time must be positive and finite");
    if (!(cv2 >= 0.0) || !std::isfinite(cv2))
        throw std::invalid_argument(
            "QueueModel: cv2 must be >= 0 and finite");
}

QueueDelay
QueueModel::waiting(double rho) const
{
    if (!(rho >= 0.0))
        throw std::invalid_argument(
            "QueueModel: utilization must be >= 0");
    if (rho >= 1.0) {
        double inf = std::numeric_limits<double>::infinity();
        return {inf, inf};
    }
    if (rho == 0.0)
        return {0.0, 0.0};
    // Gamma service with mean S and squared cv c:
    // E[S^2] = S^2 (1 + c), E[S^3] = S^3 (1 + c)(1 + 2c).
    double s2 = service_ * service_ * (1.0 + cv2_);
    double s3 = service_ * service_ * service_ * (1.0 + cv2_) *
                (1.0 + 2.0 * cv2_);
    double lambda = rho / service_;
    double mean = lambda * s2 / (2.0 * (1.0 - rho));
    // Var = E[W^2] - E[W]^2 with E[W^2] = 2 E[W]^2 + lambda s3/(3(1-rho)).
    double variance = mean * mean + lambda * s3 / (3.0 * (1.0 - rho));
    return {mean, variance};
}

std::unique_ptr<QueueModel>
makeQueueModel(const std::string &name, double service, double cv2)
{
    if (name == "mg1")
        return std::make_unique<QueueModel>(service, cv2);
    if (name != "mm1" && name != "md1")
        throw std::invalid_argument("makeQueueModel: unknown model '" +
                                    name + "'");
    if (cv2 != 0.0)
        throw std::invalid_argument(
            "makeQueueModel: cv2 = " + std::to_string(cv2) + " given with '" +
            name + "', which fixes it; choose 'mg1' to set cv2");
    return std::make_unique<QueueModel>(service, name == "mm1" ? 1.0 : 0.0);
}

} // namespace rfc
