#include "check/guard.hpp"

#include <sstream>

namespace rfc {

std::string
Violation::str() const
{
    std::ostringstream os;
    os << kind << " at cycle " << cycle;
    if (sw >= 0)
        os << " (switch " << sw;
    else
        os << " (";
    if (vc >= 0)
        os << (sw >= 0 ? ", " : "") << "vc " << vc;
    os << ")";
    if (!detail.empty())
        os << ": " << detail;
    return os.str();
}

void
CheckContext::report(const char *kind, long long cycle, int sw, int vc,
                     std::string detail)
{
    if (violations_ == 0)
        first_ = {kind, cycle, sw, vc, std::move(detail)};
    ++violations_;
}

std::string
CheckContext::summary() const
{
    std::ostringstream os;
    os << violations_ << " violations / " << checks_ << " checks";
    if (violations_ > 0)
        os << "; first: " << first_.str();
    return os.str();
}

} // namespace rfc
