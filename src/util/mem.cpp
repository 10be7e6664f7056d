#include "util/mem.hpp"

#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace rfc {
namespace {

/**
 * Read a "Vm...:  <kB> kB" line from /proc/self/status.  Returns the
 * value in bytes, or -1 when the file or field is unavailable (non
 * Linux, masked procfs).
 */
std::int64_t
procStatusBytes(const char *field)
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return -1;
    const std::size_t field_len = std::strlen(field);
    char line[256];
    std::int64_t result = -1;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, field, field_len) != 0 ||
            line[field_len] != ':')
            continue;
        long long kb = 0;
        if (std::sscanf(line + field_len + 1, "%lld", &kb) == 1)
            result = static_cast<std::int64_t>(kb) * 1024;
        break;
    }
    std::fclose(f);
    return result;
}

std::int64_t
rusageMaxRssBytes()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
#if defined(__APPLE__)
    return static_cast<std::int64_t>(ru.ru_maxrss); // bytes on macOS
#else
    return static_cast<std::int64_t>(ru.ru_maxrss) * 1024; // kB on Linux
#endif
#else
    return 0;
#endif
}

} // namespace

std::int64_t
peakRssBytes()
{
    std::int64_t v = procStatusBytes("VmHWM");
    return v >= 0 ? v : rusageMaxRssBytes();
}

} // namespace rfc
