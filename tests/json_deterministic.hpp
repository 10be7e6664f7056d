/**
 * @file
 * Test helper: the deterministic part of a bench JSON document.
 *
 * Every run-dependent value a document carries (jobs, wall clock, peak
 * RSS, per-point seconds) lives inside an object named "timing"; the
 * rest must be bit-identical at any --jobs value.  This is
 * the C++ twin of tools/json_deterministic.py, which the CI determinism
 * diffs use.
 */
#ifndef RFC_TESTS_JSON_DETERMINISTIC_HPP
#define RFC_TESTS_JSON_DETERMINISTIC_HPP

#include <string>

namespace rfc {

/** @p json with every "timing" member removed, at any depth. */
inline std::string
withoutTiming(const std::string &json)
{
    static const std::string kKey = "\"timing\":";
    std::string out;
    std::size_t i = 0;
    for (std::size_t at; (at = json.find(kKey, i)) != std::string::npos;) {
        out.append(json, i, at - i);
        // Skip the key and its value: a scalar up to the next separator,
        // or a balanced object/array (string-aware).
        std::size_t j = at + kKey.size();
        int depth = 0;
        bool in_string = false;
        for (; j < json.size(); ++j) {
            const char ch = json[j];
            if (in_string) {
                if (ch == '\\')
                    ++j;
                else if (ch == '"')
                    in_string = false;
            } else if (ch == '"') {
                in_string = true;
            } else if (ch == '{' || ch == '[') {
                ++depth;
            } else if (ch == '}' || ch == ']' || ch == ',') {
                if (depth == 0)
                    break;
                if (ch != ',' && --depth == 0) {
                    ++j;
                    break;
                }
            }
        }
        i = j;
    }
    out.append(json, i);
    return out;
}

} // namespace rfc

#endif // RFC_TESTS_JSON_DETERMINISTIC_HPP
