/**
 * @file
 * Minimal streaming JSON writer for structured experiment output.
 *
 * The experiment engine emits each run as a JSON document (grid
 * declaration, per-point aggregates with stddev/CI, per-trial wall
 * clock) so bench runs double as machine-readable perf telemetry.
 * This writer is intentionally tiny: objects, arrays, scalars, correct
 * string escaping and round-trippable doubles - no DOM, no parsing.
 * Structural misuse (closing the wrong container, a value inside an
 * object without a key) throws std::logic_error instead of emitting
 * silently malformed output.
 */
#ifndef RFC_UTIL_JSON_HPP
#define RFC_UTIL_JSON_HPP

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rfc {

/**
 * Streaming JSON emitter with automatic comma/indent management.
 *
 * Usage:
 * @code
 *   JsonWriter w(std::cout);
 *   w.beginObject();
 *   w.kv("trials", 40);
 *   w.key("points"); w.beginArray();
 *   ...
 *   w.endArray();
 *   w.endObject();  // emits trailing newline
 * @endcode
 */
class JsonWriter
{
  public:
    /** Write to @p os with @p indent spaces per nesting level. */
    explicit JsonWriter(std::ostream &os, int indent = 2);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit an object key; must be followed by a value or container. */
    void key(const std::string &k);

    void value(const std::string &v);
    void value(const char *v);
    void value(double v);
    void value(std::int64_t v);
    void value(std::uint64_t v);
    void value(bool v);

    /** key + scalar value in one call. */
    template <typename T>
    void
    kv(const std::string &k, T v)
    {
        key(k);
        value(v);
    }

    /** JSON string escaping (quotes not included). */
    static std::string escape(const std::string &s);

    /** Shortest decimal form that round-trips a double. */
    static std::string formatDouble(double v);

  private:
    void separate();  //!< comma/newline/indent before a new element
    void newline();
    /** Throws std::logic_error on object-value misuse (value sans key). */
    void requireValueContext(const char *what);

    std::ostream &os_;
    int indent_;
    struct Level
    {
        bool array;
        bool has_items;
    };
    std::vector<Level> stack_;
    bool pending_key_ = false;
};

} // namespace rfc

#endif // RFC_UTIL_JSON_HPP
