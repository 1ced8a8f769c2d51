/**
 * @file
 * A minimal JSON value model, parser and writer.
 *
 * Just enough JSON for the telemetry layer: RunReport files are
 * written, re-parsed (round-trip tested) and diffed by
 * bench/compare_reports without external dependencies. Integers are
 * kept exact up to the full uint64_t/int64_t range — simulator
 * counters do not survive a detour through double.
 *
 * A document too large to hold as one tree is written with JsonWriter
 * and read with JsonReader, a piece at a time; both produce and accept
 * exactly the bytes dump() and parse() do.
 */

#ifndef COMMON_JSON_HH
#define COMMON_JSON_HH

#include <climits>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

namespace helios
{

/** One JSON value (null / bool / integer / real / string / array /
 *  object). Objects keep their keys sorted so output is
 *  deterministic. A value is one variant over the eight kinds, so it
 *  takes 40 bytes whatever it holds, and an object member 72. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Uint,  ///< non-negative integer literal
        Int,   ///< negative integer literal
        Real,
        String,
        Array,
        Object,
    };

    JsonValue() = default;
    JsonValue(std::nullptr_t) {}
    JsonValue(bool value) : value_(std::in_place_type<bool>, value) {}
    JsonValue(uint64_t value) : value_(std::in_place_type<uint64_t>, value)
    {}
    JsonValue(int64_t value);
    JsonValue(int value) : JsonValue(int64_t(value)) {}
    JsonValue(unsigned value) : JsonValue(uint64_t(value)) {}
    JsonValue(double value) : value_(std::in_place_type<double>, value) {}
    JsonValue(std::string value)
        : value_(std::in_place_type<std::string>, std::move(value))
    {}
    JsonValue(const char *value) : JsonValue(std::string(value)) {}

    static JsonValue array();
    static JsonValue object();

    Kind kind() const { return Kind(value_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isString() const { return kind() == Kind::String; }
    bool isNumber() const
    {
        return kind() == Kind::Uint || kind() == Kind::Int ||
               kind() == Kind::Real;
    }

    // Typed accessors; fatal() on kind mismatch so malformed report
    // files fail with a message instead of corrupting a comparison.
    bool asBool() const;
    uint64_t asUint() const;
    int64_t asInt() const;
    double asDouble() const;
    const std::string &asString() const;

    // ---- array ----
    size_t size() const;
    const JsonValue &at(size_t index) const;
    void push(JsonValue value);

    // ---- object ----
    bool has(const std::string &key) const;
    /** fatal() when the key is missing. */
    const JsonValue &at(const std::string &key) const;
    /** Null value when the key is missing. */
    const JsonValue &get(const std::string &key) const;
    void set(const std::string &key, JsonValue value);
    /** The sorted members; empty when this is not an object. */
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    bool operator==(const JsonValue &other) const;

    /** Serialize; @a indent > 0 pretty-prints the arrays and objects
     *  nested less than @a compact_depth levels deep and writes each
     *  deeper one compactly, on one line. */
    std::string dump(int indent = 0, int compact_depth = INT_MAX) const;

    /** Parse a complete JSON document; fatal() on syntax errors and
     *  on arrays and objects nested more than 512 levels deep (the
     *  files this repository writes nest about 6), so a hostile file
     *  gets a named error instead of a stack overflow. No parsed
     *  array or object holds spare capacity. */
    static JsonValue parse(const std::string &text);

  private:
    class Parser;
    friend class JsonReader;
    friend class JsonWriter;

    // std::vector tolerates the incomplete element type where node
    // containers would not be guaranteed to.
    using Items = std::vector<JsonValue>;
    using Fields = std::vector<std::pair<std::string, JsonValue>>; ///< by key
    using Value = std::variant<std::monostate, bool, uint64_t, int64_t,
                               double, std::string, Items, Fields>;

    // kind() is the variant's index.
    template <Kind K>
    using Alternative = std::variant_alternative_t<size_t(K), Value>;
    static_assert(std::is_same_v<Alternative<Kind::Null>, std::monostate> &&
                  std::is_same_v<Alternative<Kind::Bool>, bool> &&
                  std::is_same_v<Alternative<Kind::Uint>, uint64_t> &&
                  std::is_same_v<Alternative<Kind::Int>, int64_t> &&
                  std::is_same_v<Alternative<Kind::Real>, double> &&
                  std::is_same_v<Alternative<Kind::String>, std::string> &&
                  std::is_same_v<Alternative<Kind::Array>, Items> &&
                  std::is_same_v<Alternative<Kind::Object>, Fields> &&
                  std::variant_size_v<Value> == 8);

    void write(std::string &out, int indent, int depth,
               int compact_depth) const;

    Value value_;
};

static_assert(sizeof(JsonValue) <= 40);

/**
 * Writes one JSON document a piece at a time, byte for byte as
 * JsonValue::dump(indent, compact_depth) writes the same tree, so a
 * document need never exist as one tree. Arrays and objects are
 * opened and closed explicitly, everything else is a complete value;
 * an object's members must come in sorted key order, as a JsonValue
 * holds them. The caller may take the text out of @a out between
 * values.
 */
class JsonWriter
{
  public:
    JsonWriter(std::string &out, int indent = 0,
               int compact_depth = INT_MAX)
        : out(out), indent(indent), compactDepth(compact_depth)
    {}

    void beginArray() { open('[', ']'); }
    void beginObject() { open('{', '}'); }
    /** Name the next member of the open object. */
    void key(const std::string &key);
    /** The document, the next element of the open array, or the value
     *  of the member just named. */
    void value(const JsonValue &value);
    /** Close the innermost open array or object. */
    void end();

  private:
    /** Start the next value: a separator and line break inside an
     *  array, nothing after a key or at the root. */
    void next();
    void open(char bracket, char close);
    /** The indent of the array or object at @a depth. */
    int indentAt(size_t depth) const;

    struct Level
    {
        char close = 0;
        size_t count = 0;
    };

    std::string &out;
    const int indent;
    const int compactDepth;
    std::vector<Level> levels; ///< the open arrays and objects
    bool keyed = false;        ///< a key awaits its value
};

/**
 * Reads one JSON document whose root is an object, holding at most one
 * element of its deferred array members at a time. The constructor
 * checks all of @a text with JsonValue::parse()'s grammar (the same
 * errors at the same offsets, the same nesting bound counted from the
 * root) and builds every top-level member but the @a deferred ones,
 * whose places it notes; a repeated key keeps its last value. The
 * text must outlive the reader.
 */
class JsonReader
{
  public:
    JsonReader(const std::string &text,
               std::initializer_list<const char *> deferred);
    JsonReader(std::string &&, std::initializer_list<const char *>) =
        delete;

    /** The root object without its deferred members; Null when the
     *  root is not an object. */
    const JsonValue &head() const { return head_; }

    /** Call @a visit with each element of the root's member @a key as
     *  at(key), size() and at(i) would reach it, with their errors. A
     *  deferred array is built one element at a time. */
    void forEach(const std::string &key,
                 const std::function<void(const JsonValue &)> &visit)
        const;

  private:
    const std::string &text;
    JsonValue head_;
    /** Each deferred key and where its last value starts (npos when
     *  the root has no such member). */
    std::vector<std::pair<std::string, size_t>> deferred_;
};

/** Escape @a text for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &text);

/**
 * The shortest decimal representation of a finite double that parses
 * back (strtod) to exactly the same value — "0.1" instead of the 17
 * significant digits %.17g would print. The JSON writer uses this for
 * every Real; exposed for tests and other emitters.
 */
std::string formatShortestDouble(double value);

} // namespace helios

#endif // COMMON_JSON_HH
