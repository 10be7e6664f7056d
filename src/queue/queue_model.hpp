/**
 * @file
 * Analytic per-output-port contention model for the queue engine.
 *
 * The third engine tier (src/queue) needs, for every directed link, the
 * steady-state waiting time a packet spends queued behind other packets
 * contending for that port.  A QueueModel maps a port utilization rho
 * to the first two moments of the waiting time, and the latency sweep
 * (queue/latency.hpp) composes those moments along paths.
 *
 * The model is an M/G/1 queue with gamma service of mean S and squared
 * coefficient of variation cv2, solved with the Takacs moment formulas
 * (Pollaczek-Khinchine for the mean):
 *
 *     E[W]   = lambda E[S^2] / (2 (1 - rho))
 *     E[W^2] = 2 E[W]^2 + lambda E[S^3] / (3 (1 - rho))
 *
 * with lambda = rho / S, E[S^2] = S^2 (1 + cv2) and
 * E[S^3] = S^3 (1 + cv2)(1 + 2 cv2).  Three presets name the usual
 * cases: "md1" (cv2 = 0, deterministic service - the right default for
 * fixed-size packets draining one phit per cycle), "mm1" (cv2 = 1,
 * exponential service) and "mg1" (a chosen cv2).  At rho >= 1 the
 * queue has no steady state and the moments are +infinity - the sweep
 * reports such points as saturated.
 *
 * waiting() is const and pure, so one model serves every worker thread.
 */
#ifndef RFC_QUEUE_QUEUE_MODEL_HPP
#define RFC_QUEUE_QUEUE_MODEL_HPP

#include <memory>
#include <string>

namespace rfc {

/** First two moments of the waiting time at one output port. */
struct QueueDelay
{
    double mean = 0.0;
    double variance = 0.0;
};

/** M/G/1 port contention: utilization -> waiting-time moments. */
class QueueModel
{
  public:
    /**
     * Gamma service of mean @p service (cycles per packet) and squared
     * coefficient of variation @p cv2.  Throws std::invalid_argument
     * unless service > 0 and cv2 >= 0, both finite.
     */
    QueueModel(double service, double cv2);

    double cv2() const { return cv2_; }

    /**
     * Waiting-time moments at utilization @p rho.  {0, 0} at rho = 0,
     * {+inf, +inf} at rho >= 1 (no steady state); throws
     * std::invalid_argument on rho < 0 or NaN.
     */
    QueueDelay waiting(double rho) const;

  private:
    double service_;
    double cv2_;
};

/**
 * Factory by name: "mm1" (cv2 = 1), "md1" (cv2 = 0) or "mg1" (uses
 * @p cv2).  Throws std::invalid_argument on an unknown name, on a
 * nonzero @p cv2 with a preset that fixes it, or on service <= 0.
 */
std::unique_ptr<QueueModel> makeQueueModel(const std::string &name,
                                           double service,
                                           double cv2 = 0.0);

} // namespace rfc

#endif // RFC_QUEUE_QUEUE_MODEL_HPP
