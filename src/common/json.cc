#include "common/json.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "common/logging.hh"

namespace helios
{

namespace
{

/** The deepest nesting JsonValue::parse() accepts. */
constexpr unsigned kMaxDepth = 512;

void
appendEscaped(std::string &out, const std::string &text)
{
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

template <typename Integer>
void
appendInteger(std::string &out, Integer value)
{
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out.append(buf, end);
}

} // namespace

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
    appendEscaped(out, text);
    return out;
}

std::string
formatShortestDouble(double value)
{
    // The shortest decimal form that parses back to the exact same
    // bits: 15 digits cover most values, 17 always suffice.
    for (int precision = 15; precision <= 17; ++precision) {
        std::string text = strFormat("%.*g", precision, value);
        if (std::strtod(text.c_str(), nullptr) == value)
            return text;
    }
    return strFormat("%.17g", value); // unreachable for finite doubles
}

JsonValue::JsonValue(int64_t value)
{
    if (value >= 0)
        value_.emplace<uint64_t>(uint64_t(value));
    else
        value_.emplace<int64_t>(value);
}

JsonValue
JsonValue::array()
{
    JsonValue value;
    value.value_.emplace<Items>();
    return value;
}

JsonValue
JsonValue::object()
{
    JsonValue value;
    value.value_.emplace<Fields>();
    return value;
}

bool
JsonValue::asBool() const
{
    if (const bool *value = std::get_if<bool>(&value_))
        return *value;
    fatal("json: expected a boolean");
}

uint64_t
JsonValue::asUint() const
{
    if (const uint64_t *value = std::get_if<uint64_t>(&value_))
        return *value;
    fatal("json: expected a non-negative integer");
}

int64_t
JsonValue::asInt() const
{
    if (const int64_t *value = std::get_if<int64_t>(&value_))
        return *value;
    const uint64_t *value = std::get_if<uint64_t>(&value_);
    if (value && *value <= uint64_t(INT64_MAX))
        return int64_t(*value);
    fatal("json: expected an integer in int64 range");
}

double
JsonValue::asDouble() const
{
    switch (kind()) {
      case Kind::Real: return std::get<double>(value_);
      case Kind::Uint: return double(std::get<uint64_t>(value_));
      case Kind::Int: return double(std::get<int64_t>(value_));
      default: fatal("json: expected a number");
    }
}

const std::string &
JsonValue::asString() const
{
    if (const std::string *text = std::get_if<std::string>(&value_))
        return *text;
    fatal("json: expected a string");
}

size_t
JsonValue::size() const
{
    if (const Items *items = std::get_if<Items>(&value_))
        return items->size();
    if (const Fields *fields = std::get_if<Fields>(&value_))
        return fields->size();
    fatal("json: size() on a scalar");
}

const JsonValue &
JsonValue::at(size_t index) const
{
    const Items *items = std::get_if<Items>(&value_);
    if (!items)
        fatal("json: expected an array");
    if (index >= items->size())
        fatal("json: array index %zu out of range (size %zu)", index,
              items->size());
    return (*items)[index];
}

void
JsonValue::push(JsonValue value)
{
    if (isNull())
        value_.emplace<Items>();
    Items *items = std::get_if<Items>(&value_);
    if (!items)
        fatal("json: push() on a non-array");
    items->push_back(std::move(value));
}

namespace
{

template <typename Fields>
auto
fieldPos(Fields &fields, const std::string &key)
{
    return std::lower_bound(fields.begin(), fields.end(), key,
                            [](const auto &field, const std::string &k) {
                                return field.first < k;
                            });
}

} // namespace

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    static const Fields none;
    const Fields *fields = std::get_if<Fields>(&value_);
    return fields ? *fields : none;
}

bool
JsonValue::has(const std::string &key) const
{
    const Fields *fields = std::get_if<Fields>(&value_);
    if (!fields)
        return false;
    const auto it = fieldPos(*fields, key);
    return it != fields->end() && it->first == key;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const Fields *fields = std::get_if<Fields>(&value_);
    if (!fields)
        fatal("json: expected an object (looking up '%s')", key.c_str());
    const auto it = fieldPos(*fields, key);
    if (it == fields->end() || it->first != key)
        fatal("json: missing key '%s'", key.c_str());
    return it->second;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    static const JsonValue null_value;
    const Fields *fields = std::get_if<Fields>(&value_);
    if (!fields)
        return null_value;
    const auto it = fieldPos(*fields, key);
    return it != fields->end() && it->first == key ? it->second
                                                   : null_value;
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    if (isNull())
        value_.emplace<Fields>();
    Fields *fields = std::get_if<Fields>(&value_);
    if (!fields)
        fatal("json: set() on a non-object");
    const auto it = fieldPos(*fields, key);
    if (it != fields->end() && it->first == key)
        it->second = std::move(value);
    else
        fields->emplace(it, key, std::move(value));
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    // 5 and 5.0 parse to different kinds but mean the same number.
    if (kind() != other.kind())
        return isNumber() && other.isNumber() &&
               asDouble() == other.asDouble();
    return value_ == other.value_;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

namespace
{

/** Break the line and indent it to @a depth when pretty-printing. */
void
newline(std::string &out, int indent, size_t depth)
{
    if (indent > 0) {
        out += '\n';
        out.append(size_t(indent) * depth, ' ');
    }
}

void
appendKey(std::string &out, const std::string &key, int indent)
{
    out += '"';
    appendEscaped(out, key);
    out += indent > 0 ? "\": " : "\":";
}

} // namespace

void
JsonValue::write(std::string &out, int indent, int depth,
                 int compact_depth) const
{
    if (depth >= compact_depth)
        indent = 0;
    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += std::get<bool>(value_) ? "true" : "false";
        break;
      case Kind::Uint:
        appendInteger(out, std::get<uint64_t>(value_));
        break;
      case Kind::Int:
        appendInteger(out, std::get<int64_t>(value_));
        break;
      case Kind::Real: {
        const double real = std::get<double>(value_);
        // JSON has no NaN/Infinity literal; silently degrading to
        // null would corrupt a report, so refuse loudly instead.
        if (!std::isfinite(real))
            fatal("json: cannot serialize non-finite number (%s)",
                  std::isnan(real) ? "NaN" : "Infinity");
        out += formatShortestDouble(real);
        break;
      }
      case Kind::String:
        out += '"';
        appendEscaped(out, std::get<std::string>(value_));
        out += '"';
        break;
      case Kind::Array: {
        const Items &items = std::get<Items>(value_);
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            newline(out, indent, size_t(depth) + 1);
            items[i].write(out, indent, depth + 1, compact_depth);
        }
        if (!items.empty())
            newline(out, indent, size_t(depth));
        out += ']';
        break;
      }
      case Kind::Object: {
        const Fields &fields = std::get<Fields>(value_);
        out += '{';
        for (size_t i = 0; i < fields.size(); ++i) {
            if (i)
                out += ',';
            newline(out, indent, size_t(depth) + 1);
            appendKey(out, fields[i].first, indent);
            fields[i].second.write(out, indent, depth + 1,
                                   compact_depth);
        }
        if (!fields.empty())
            newline(out, indent, size_t(depth));
        out += '}';
        break;
      }
    }
}

std::string
JsonValue::dump(int indent, int compact_depth) const
{
    std::string out;
    JsonWriter(out, indent, compact_depth).value(*this);
    return out;
}

int
JsonWriter::indentAt(size_t depth) const
{
    return int(depth) >= compactDepth ? 0 : indent;
}

void
JsonWriter::next()
{
    if (keyed) {
        keyed = false;
        return;
    }
    if (levels.empty())
        return;
    Level &level = levels.back();
    helios_assert(level.close == ']', "json writer: a member needs a key");
    if (level.count++)
        out += ',';
    newline(out, indentAt(levels.size() - 1), levels.size());
}

void
JsonWriter::open(char bracket, char close)
{
    next();
    out += bracket;
    levels.push_back({close});
}

void
JsonWriter::key(const std::string &key)
{
    helios_assert(!keyed && !levels.empty() && levels.back().close == '}',
                  "json writer: a key outside an object");
    if (levels.back().count++)
        out += ',';
    const int object_indent = indentAt(levels.size() - 1);
    newline(out, object_indent, levels.size());
    appendKey(out, key, object_indent);
    keyed = true;
}

void
JsonWriter::value(const JsonValue &value)
{
    next();
    value.write(out, indent, int(levels.size()), compactDepth);
    if (levels.empty() && indent > 0)
        out += '\n';
}

void
JsonWriter::end()
{
    helios_assert(!keyed && !levels.empty(), "json writer: nothing to close");
    const Level level = levels.back();
    levels.pop_back();
    if (level.count)
        newline(out, indentAt(levels.size()), levels.size());
    out += level.close;
    if (levels.empty() && indent > 0)
        out += '\n';
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/**
 * Recursive descent over the document text. Each production either
 * builds its value or, with Build false, checks and steps over it
 * building nothing; both fail alike. The elements of every open array
 * and the members of every open object wait on two shared stacks; a
 * closing bracket moves its own into a vector of exactly their count,
 * so a parsed tree holds no growth slack.
 */
class JsonValue::Parser
{
  public:
    /** Read @a text from @a pos, inside @a depth open arrays and
     *  objects; errors name offsets into the whole text. */
    explicit Parser(const std::string &text, size_t pos = 0,
                    unsigned depth = 0)
        : text(text), pos(pos), depth(depth)
    {}

    JsonValue
    document()
    {
        JsonValue value = parseValue<true>();
        finish();
        return value;
    }

    /** Build the value at the cursor. */
    JsonValue value() { return parseValue<true>(); }

    /** Check the value at the cursor and step over it. */
    void skip() { parseValue<false>(); }

    /** Fail unless only whitespace is left. */
    void
    finish()
    {
        skipSpace();
        if (pos != text.size())
            fail("trailing garbage");
    }

    /** Whether the value at the cursor opens @a bracket. */
    bool
    opens(char bracket)
    {
        skipSpace();
        return peek() == bracket;
    }

    size_t offset() const { return pos; }

    /** Walk the object at the cursor: @a member(key) runs after each
     *  key's colon and consumes that member's value. Keys are built
     *  only when @a Build is set. */
    template <bool Build, typename Member>
    void
    object(Member member)
    {
        expect('{');
        descend();
        skipSpace();
        if (peek() == '}') {
            ++pos;
        } else {
            for (;;) {
                skipSpace();
                std::string key = parseString<Build>();
                skipSpace();
                expect(':');
                member(std::move(key));
                skipSpace();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect('}');
                break;
            }
        }
        --depth;
    }

    /** Walk the array at the cursor: @a element() consumes each
     *  element. */
    template <typename Element>
    void
    array(Element element)
    {
        expect('[');
        descend();
        skipSpace();
        if (peek() == ']') {
            ++pos;
        } else {
            for (;;) {
                element();
                skipSpace();
                if (peek() == ',') {
                    ++pos;
                    continue;
                }
                expect(']');
                break;
            }
        }
        --depth;
    }

  private:
    [[noreturn]] void
    fail(const char *what)
    {
        fatal("json parse error at offset %zu: %s", pos, what);
    }

    void
    skipSpace()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        if (pos >= text.size())
            fail("unexpected end of input");
        return text[pos];
    }

    void
    expect(char c)
    {
        if (pos >= text.size() || text[pos] != c)
            fail("unexpected character");
        ++pos;
    }

    bool
    consume(const char *word)
    {
        const size_t len = std::char_traits<char>::length(word);
        if (text.compare(pos, len, word) == 0) {
            pos += len;
            return true;
        }
        return false;
    }

    /** Enter one more array or object level. */
    void
    descend()
    {
        if (++depth > kMaxDepth)
            fatal("json parse error at offset %zu: arrays and objects "
                  "nested more than %u levels deep",
                  pos, kMaxDepth);
    }

    template <bool Build>
    JsonValue
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{': return parseObject<Build>();
          case '[': return parseArray<Build>();
          case '"': return JsonValue(parseString<Build>());
          case 't':
            if (!consume("true"))
                fail("bad literal");
            return JsonValue(true);
          case 'f':
            if (!consume("false"))
                fail("bad literal");
            return JsonValue(false);
          case 'n':
            if (!consume("null"))
                fail("bad literal");
            return JsonValue(nullptr);
          default:
            return parseNumber();
        }
    }

    template <bool Build>
    JsonValue
    parseObject()
    {
        const size_t base = fields.size();
        object<Build>([&](std::string key) {
            JsonValue value = parseValue<Build>();
            if constexpr (Build)
                fields.emplace_back(std::move(key), std::move(value));
        });
        if constexpr (!Build)
            return JsonValue();

        // Sorted keys, a repeated key keeping its last value, as
        // set() would leave them. Written files are already sorted.
        const auto first = fields.begin() + ptrdiff_t(base);
        auto last = fields.end();
        const auto sorted = [](const auto &a, const auto &b) {
            return a.first < b.first;
        };
        const auto unsorted = [](const auto &a, const auto &b) {
            return !(a.first < b.first);
        };
        if (std::adjacent_find(first, last, unsorted) != last) {
            std::stable_sort(first, last, sorted);
            auto kept = first;
            for (auto it = first; it != last; ++it) {
                const auto next = std::next(it);
                if (next != last && next->first == it->first)
                    continue;
                if (kept != it)
                    *kept = std::move(*it);
                ++kept;
            }
            last = kept;
        }
        JsonValue object;
        object.value_.emplace<Fields>(std::make_move_iterator(first),
                                      std::make_move_iterator(last));
        fields.resize(base);
        return object;
    }

    template <bool Build>
    JsonValue
    parseArray()
    {
        const size_t base = items.size();
        array([&] {
            JsonValue value = parseValue<Build>();
            if constexpr (Build)
                items.push_back(std::move(value));
        });
        if constexpr (!Build)
            return JsonValue();

        JsonValue array;
        array.value_.emplace<Items>(
            std::make_move_iterator(items.begin() + ptrdiff_t(base)),
            std::make_move_iterator(items.end()));
        items.resize(base);
        return array;
    }

    /** The string at the cursor; empty unless @a Build is set. */
    template <bool Build>
    std::string
    parseString()
    {
        expect('"');
        std::string out;
        const auto put = [&](char c) {
            if constexpr (Build)
                out += c;
        };
        const char *const data = text.data();
        const size_t size = text.size();
        for (;;) {
            // Copy the run of plain characters up to the next quote or
            // escape in one append.
            size_t end = pos;
            while (end < size && data[end] != '"' && data[end] != '\\')
                ++end;
            if (end == size) {
                pos = size;
                fail("unterminated string");
            }
            if constexpr (Build)
                out.append(text, pos, end - pos);
            pos = end + 1;
            if (text[end] == '"')
                return out;
            if (pos >= text.size())
                fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': put('"'); break;
              case '\\': put('\\'); break;
              case '/': put('/'); break;
              case 'b': put('\b'); break;
              case 'f': put('\f'); break;
              case 'n': put('\n'); break;
              case 'r': put('\r'); break;
              case 't': put('\t'); break;
              case 'u': {
                if (pos + 4 > text.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= unsigned(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Encode as UTF-8 (no surrogate-pair support; the
                // telemetry layer never emits any).
                if (code < 0x80) {
                    put(char(code));
                } else if (code < 0x800) {
                    put(char(0xc0 | (code >> 6)));
                    put(char(0x80 | (code & 0x3f)));
                } else {
                    put(char(0xe0 | (code >> 12)));
                    put(char(0x80 | ((code >> 6) & 0x3f)));
                    put(char(0x80 | (code & 0x3f)));
                }
                break;
              }
              default:
                fail("bad escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        const size_t start = pos;
        bool negative = false, is_real = false;
        if (peek() == '-') {
            negative = true;
            ++pos;
        }
        while (pos < text.size()) {
            const char c = text[pos];
            if (c >= '0' && c <= '9') {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_real = is_real || c == '.' || c == 'e' || c == 'E';
                ++pos;
            } else {
                break;
            }
        }
        // The token is [first, last); it is read where it lies.
        const char *const first = text.data() + start;
        const char *const last = text.data() + pos;
        if (first == last || (negative && last - first == 1))
            fail("bad number");
        if (!is_real) {
            // An integer that does not fit its type falls through to a
            // double. A '+' sign is taken, as strtoull took it.
            if (negative) {
                int64_t value = 0;
                const auto [end, ec] = std::from_chars(first, last, value);
                if (ec == std::errc() && end == last)
                    return JsonValue(value);
            } else {
                uint64_t value = 0;
                const auto [end, ec] = std::from_chars(
                    *first == '+' ? first + 1 : first, last, value);
                if (ec == std::errc() && end == last)
                    return JsonValue(value);
            }
        }
        // strtod reads on past the token only into "inf", "nan" or a
        // hex number, and a token it does not read to its end is bad.
        char *end = nullptr;
        const double value = std::strtod(first, &end);
        if (end != last)
            fail("bad number");
        return JsonValue(value);
    }

    const std::string &text;
    size_t pos;
    unsigned depth;
    Items items;   ///< elements of the open arrays, innermost last
    Fields fields; ///< members of the open objects, innermost last
};

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).document();
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

JsonReader::JsonReader(const std::string &text,
                       std::initializer_list<const char *> deferred)
    : text(text)
{
    for (const char *key : deferred)
        deferred_.emplace_back(key, std::string::npos);
    JsonValue::Parser parser(text);
    if (parser.opens('{')) {
        head_ = JsonValue::object();
        parser.object<true>([&](std::string key) {
            for (auto &[name, at] : deferred_) {
                if (name == key) {
                    at = parser.offset();
                    parser.skip();
                    return;
                }
            }
            head_.set(key, parser.value());
        });
    } else {
        parser.skip();
    }
    parser.finish();
}

void
JsonReader::forEach(const std::string &key,
                    const std::function<void(const JsonValue &)> &visit)
    const
{
    const auto each = [&](const JsonValue &list) {
        for (size_t i = 0; i < list.size(); ++i)
            visit(list.at(i));
    };
    for (const auto &[name, at] : deferred_) {
        if (name != key || at == std::string::npos)
            continue;
        // Members sit one level below the root.
        JsonValue::Parser parser(text, at, 1);
        if (parser.opens('['))
            parser.array([&] { visit(parser.value()); });
        else
            each(parser.value());
        return;
    }
    each(head_.at(key));
}

} // namespace helios
