#include "common/json.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace helios
{

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size());
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
    if (value >= 0) {
        kind_ = Kind::Uint;
        uinteger = uint64_t(value);
    } else {
        kind_ = Kind::Int;
        integer = value;
    }
}

JsonValue
JsonValue::array()
{
    JsonValue value;
    value.kind_ = Kind::Array;
    return value;
}

JsonValue
JsonValue::object()
{
    JsonValue value;
    value.kind_ = Kind::Object;
    return value;
}

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("json: expected a boolean");
    return boolean;
}

uint64_t
JsonValue::asUint() const
{
    if (kind_ != Kind::Uint)
        fatal("json: expected a non-negative integer");
    return uinteger;
}

int64_t
JsonValue::asInt() const
{
    if (kind_ == Kind::Int)
        return integer;
    if (kind_ == Kind::Uint && uinteger <= uint64_t(INT64_MAX))
        return int64_t(uinteger);
    fatal("json: expected an integer in int64 range");
}

double
JsonValue::asDouble() const
{
    switch (kind_) {
      case Kind::Real: return real;
      case Kind::Uint: return double(uinteger);
      case Kind::Int: return double(integer);
      default: fatal("json: expected a number");
    }
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        fatal("json: expected a string");
    return text;
}

size_t
JsonValue::size() const
{
    if (kind_ == Kind::Array)
        return items.size();
    if (kind_ == Kind::Object)
        return fields.size();
    fatal("json: size() on a scalar");
}

const JsonValue &
JsonValue::at(size_t index) const
{
    if (kind_ != Kind::Array)
        fatal("json: expected an array");
    if (index >= items.size())
        fatal("json: array index %zu out of range (size %zu)", index,
              items.size());
    return items[index];
}

void
JsonValue::push(JsonValue value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        fatal("json: push() on a non-array");
    items.push_back(std::move(value));
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

bool
JsonValue::has(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return false;
    const auto it = fieldPos(fields, key);
    return it != fields.end() && it->first == key;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    if (kind_ != Kind::Object)
        fatal("json: expected an object (looking up '%s')", key.c_str());
    const auto it = fieldPos(fields, key);
    if (it == fields.end() || it->first != key)
        fatal("json: missing key '%s'", key.c_str());
    return it->second;
}

const JsonValue &
JsonValue::get(const std::string &key) const
{
    static const JsonValue null_value;
    if (kind_ != Kind::Object)
        return null_value;
    const auto it = fieldPos(fields, key);
    return it != fields.end() && it->first == key ? it->second
                                                  : null_value;
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        fatal("json: set() on a non-object");
    const auto it = fieldPos(fields, key);
    if (it != fields.end() && it->first == key)
        it->second = std::move(value);
    else
        fields.emplace(it, key, std::move(value));
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (kind_ != other.kind_) {
        // 5 and 5.0 parse to different kinds but mean the same number.
        if (isNumber() && other.isNumber())
            return asDouble() == other.asDouble();
        return false;
    }
    switch (kind_) {
      case Kind::Null: return true;
      case Kind::Bool: return boolean == other.boolean;
      case Kind::Uint: return uinteger == other.uinteger;
      case Kind::Int: return integer == other.integer;
      case Kind::Real: return real == other.real;
      case Kind::String: return text == other.text;
      case Kind::Array: return items == other.items;
      case Kind::Object: return fields == other.fields;
    }
    return false;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

void
JsonValue::write(std::string &out, int indent, int depth,
                 int compact_depth) const
{
    if (depth >= compact_depth)
        indent = 0;
    const auto newline = [&](int d) {
        if (indent > 0) {
            out += '\n';
            out.append(size_t(indent) * d, ' ');
        }
    };
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolean ? "true" : "false";
        break;
      case Kind::Uint:
        out += strFormat("%llu", (unsigned long long)uinteger);
        break;
      case Kind::Int:
        out += strFormat("%lld", (long long)integer);
        break;
      case Kind::Real:
        // JSON has no NaN/Infinity literal; silently degrading to
        // null would corrupt a report, so refuse loudly instead.
        if (!std::isfinite(real))
            fatal("json: cannot serialize non-finite number (%s)",
                  std::isnan(real) ? "NaN" : "Infinity");
        out += formatShortestDouble(real);
        break;
      case Kind::String:
        out += '"';
        out += jsonEscape(text);
        out += '"';
        break;
      case Kind::Array:
        out += '[';
        for (size_t i = 0; i < items.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            items[i].write(out, indent, depth + 1, compact_depth);
        }
        if (!items.empty())
            newline(depth);
        out += ']';
        break;
      case Kind::Object:
        out += '{';
        for (size_t i = 0; i < fields.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += '"';
            out += jsonEscape(fields[i].first);
            out += indent > 0 ? "\": " : "\":";
            fields[i].second.write(out, indent, depth + 1,
                                   compact_depth);
        }
        if (!fields.empty())
            newline(depth);
        out += '}';
        break;
    }
}

std::string
JsonValue::dump(int indent, int compact_depth) const
{
    std::string out;
    write(out, indent, 0, compact_depth);
    if (indent > 0)
        out += '\n';
    return out;
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(const std::string &text) : text(text) {}

    JsonValue
    document()
    {
        JsonValue value = parseValue();
        skipSpace();
        if (pos != text.size())
            fail("trailing garbage");
        return value;
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

    JsonValue
    parseValue()
    {
        skipSpace();
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return JsonValue(parseString());
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

    JsonValue
    parseObject()
    {
        expect('{');
        JsonValue object = JsonValue::object();
        skipSpace();
        if (peek() == '}') {
            ++pos;
            return object;
        }
        for (;;) {
            skipSpace();
            std::string key = parseString();
            skipSpace();
            expect(':');
            object.set(key, parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect('}');
            return object;
        }
    }

    JsonValue
    parseArray()
    {
        expect('[');
        JsonValue array = JsonValue::array();
        skipSpace();
        if (peek() == ']') {
            ++pos;
            return array;
        }
        for (;;) {
            array.push(parseValue());
            skipSpace();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            expect(']');
            return array;
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= text.size())
                fail("unterminated string");
            const char c = text[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= text.size())
                fail("unterminated escape");
            const char esc = text[pos++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
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
                    out += char(code);
                } else if (code < 0x800) {
                    out += char(0xc0 | (code >> 6));
                    out += char(0x80 | (code & 0x3f));
                } else {
                    out += char(0xe0 | (code >> 12));
                    out += char(0x80 | ((code >> 6) & 0x3f));
                    out += char(0x80 | (code & 0x3f));
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
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                is_real = is_real || c == '.' || c == 'e' || c == 'E';
                ++pos;
            } else {
                break;
            }
        }
        const std::string token = text.substr(start, pos - start);
        if (token.empty() || token == "-")
            fail("bad number");
        errno = 0;
        if (!is_real) {
            char *end = nullptr;
            if (negative) {
                const long long value =
                    std::strtoll(token.c_str(), &end, 10);
                if (*end == '\0' && errno != ERANGE)
                    return JsonValue(int64_t(value));
            } else {
                const unsigned long long value =
                    std::strtoull(token.c_str(), &end, 10);
                if (*end == '\0' && errno != ERANGE)
                    return JsonValue(uint64_t(value));
            }
            errno = 0; // integer overflow: fall through to double
        }
        char *end = nullptr;
        const double value = std::strtod(token.c_str(), &end);
        if (*end != '\0')
            fail("bad number");
        return JsonValue(value);
    }

    const std::string &text;
    size_t pos = 0;
};

} // namespace

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).document();
}

} // namespace helios
