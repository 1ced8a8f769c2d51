/**
 * @file
 * JSON double-emission regression tests: finite values must round-trip
 * through the shortest decimal form that parses back exactly, and
 * non-finite values must be rejected loudly — silently emitting `nan`
 * (not JSON) or degrading to null would corrupt a report file. Then
 * the value model: each kind round-trips with its kind and spelling,
 * parsed keys come out sorted with a repeated key's last value, and
 * nesting past the parser's bound is a named error. Last, the piece-
 * at-a-time pair: JsonWriter writes what dump() writes, and JsonReader
 * fails where parse() fails.
 */

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"

using namespace helios;

namespace
{

double
reparse(const std::string &text)
{
    return std::strtod(text.c_str(), nullptr);
}

} // namespace

TEST(JsonDouble, ShortestFormRoundTripsExactly)
{
    // Adversarial values: decimals with no exact binary form, subnormal
    // and near-overflow magnitudes, negative zero, and values whose
    // %.15g spelling does NOT round-trip (forcing the 16/17-digit
    // fallback).
    const double values[] = {
        0.0,
        -0.0,
        0.1,
        -0.1,
        1.0 / 3.0,
        2.0 / 3.0,
        0.30000000000000004, // classic 0.1 + 0.2
        1e-323,              // subnormal
        std::numeric_limits<double>::denorm_min(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::epsilon(),
        1.0 + std::numeric_limits<double>::epsilon(),
        9007199254740993.0, // 2^53 + 1 rounds; still must round-trip
        1.7976931348623155e308,
        5e-324,
        3.141592653589793,
        2.718281828459045,
        1e100,
        -1e-100,
        123456789.123456789,
    };
    for (const double value : values) {
        const std::string text = formatShortestDouble(value);
        EXPECT_EQ(reparse(text), value) << "value spelled " << text;
    }
}

TEST(JsonDouble, PrefersShortSpellings)
{
    // The entire point of shortest-form: human-friendly spellings for
    // values that have one, instead of 17 significant digits.
    EXPECT_EQ(formatShortestDouble(0.1), "0.1");
    EXPECT_EQ(formatShortestDouble(2.5), "2.5");
    EXPECT_EQ(formatShortestDouble(100.0), "100");
}

TEST(JsonDouble, WriterUsesShortestForm)
{
    JsonValue object = JsonValue::object();
    object.set("ipc", JsonValue(0.1));
    EXPECT_EQ(object.dump(0), "{\"ipc\":0.1}");

    // And the full parse → dump → parse cycle is lossless.
    const double value = 1.0 / 3.0;
    JsonValue original(value);
    const JsonValue reparsed = JsonValue::parse(original.dump(0));
    EXPECT_EQ(reparsed.asDouble(), value);
}

TEST(JsonDouble, NonFiniteValuesAreRejected)
{
    const double bad[] = {
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (const double value : bad) {
        JsonValue json(value);
        EXPECT_THROW(json.dump(0), FatalError);
        EXPECT_THROW(json.dump(2), FatalError);
    }
}

TEST(JsonDouble, NonFiniteErrorNamesTheProblem)
{
    try {
        JsonValue(std::numeric_limits<double>::quiet_NaN()).dump(0);
        FAIL() << "NaN serialization must throw";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("NaN"),
                  std::string::npos);
    }
    try {
        JsonValue(-std::numeric_limits<double>::infinity()).dump(0);
        FAIL() << "Infinity serialization must throw";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("Infinity"),
                  std::string::npos);
    }
}

TEST(JsonDouble, NestedNonFiniteIsStillCaught)
{
    // The guard must fire wherever the value hides, not just at the
    // top level.
    JsonValue object = JsonValue::object();
    JsonValue inner = JsonValue::array();
    inner.push(JsonValue(1.5));
    inner.push(JsonValue(std::numeric_limits<double>::infinity()));
    object.set("series", inner);
    EXPECT_THROW(object.dump(2), FatalError);
}

// ---------------------------------------------------------------------
// The value model: every kind survives dump → parse with its kind and
// its exact spelling, and numbers compare by value across kinds.

TEST(JsonValue, EachKindRoundTrips)
{
    using Kind = JsonValue::Kind;
    const struct
    {
        const char *text; ///< as dump() writes it
        Kind kind;
    } rows[] = {
        {"0", Kind::Uint},
        {"18446744073709551615", Kind::Uint}, // UINT64_MAX
        {"-9223372036854775808", Kind::Int},  // INT64_MIN
        {"-1", Kind::Int},
        {"0.1", Kind::Real},
        {"1e+300", Kind::Real},
        {"\"\"", Kind::String},
        {"\"\\\"\\\\\\n\\r\\t\\u0001\\u001f\"", Kind::String},
        {"[]", Kind::Array},
        {"{}", Kind::Object},
    };
    for (const auto &row : rows) {
        const JsonValue value = JsonValue::parse(row.text);
        EXPECT_EQ(value.kind(), row.kind) << row.text;
        EXPECT_EQ(value.dump(), row.text);
        EXPECT_EQ(value.dump(2), std::string(row.text) + "\n");
        const JsonValue again = JsonValue::parse(value.dump());
        EXPECT_EQ(again.kind(), row.kind) << row.text;
        EXPECT_TRUE(again == value) << row.text;
    }
    EXPECT_EQ(JsonValue::parse("18446744073709551615").asUint(),
              UINT64_MAX);
    EXPECT_EQ(JsonValue::parse("-9223372036854775808").asInt(), INT64_MIN);
    EXPECT_EQ(JsonValue::parse("1e300").dump(), "1e+300");
    EXPECT_EQ(JsonValue::parse("\"\\\"\\\\\\n\\r\\t\\u0001\\u001f\"")
                  .asString(),
              "\"\\\n\r\t\x01\x1f");
    // The escapes dump() never writes still parse.
    EXPECT_EQ(JsonValue::parse("\"\\/\\b\\f\\u00e9\"").asString(),
              "/\b\f\xc3\xa9");
    // One past an integer type's range is a real, not an error.
    EXPECT_EQ(JsonValue::parse("18446744073709551616").kind(), Kind::Real);
    EXPECT_EQ(JsonValue::parse("-9223372036854775809").kind(), Kind::Real);
}

TEST(JsonValue, NumbersCompareByValueAcrossKinds)
{
    EXPECT_EQ(JsonValue::parse("5").kind(), JsonValue::Kind::Uint);
    EXPECT_EQ(JsonValue::parse("5.0").kind(), JsonValue::Kind::Real);
    EXPECT_TRUE(JsonValue::parse("5") == JsonValue::parse("5.0"));
    EXPECT_TRUE(JsonValue(5) == JsonValue(5.0));
    EXPECT_TRUE(JsonValue(-1) == JsonValue(-1.0));
    EXPECT_FALSE(JsonValue(5) == JsonValue(5.5));
    EXPECT_FALSE(JsonValue(5) == JsonValue("5"));
    EXPECT_TRUE(JsonValue::parse("[5]") == JsonValue::parse("[5.0]"));
}

TEST(JsonValue, UnsortedKeysParseSorted)
{
    const JsonValue value =
        JsonValue::parse("{\"b\": 2, \"c\": {\"z\": 1, \"y\": 0}, \"a\": 1}");
    EXPECT_EQ(value.dump(), "{\"a\":1,\"b\":2,\"c\":{\"y\":0,\"z\":1}}");
    EXPECT_EQ(value.at("b").asUint(), 2u);
    EXPECT_EQ(value.at("c").at("y").asUint(), 0u);
}

TEST(JsonValue, RepeatedKeyKeepsItsLastValue)
{
    const JsonValue value =
        JsonValue::parse("{\"k\": 1, \"a\": [], \"k\": 2, \"b\": 0, "
                         "\"k\": \"last\"}");
    EXPECT_EQ(value.size(), 3u);
    EXPECT_EQ(value.at("k").asString(), "last");
    EXPECT_EQ(value.dump(), "{\"a\":[],\"b\":0,\"k\":\"last\"}");
    // set() agrees: the last write wins.
    JsonValue built = JsonValue::object();
    built.set("k", JsonValue(1));
    built.set("a", JsonValue::array());
    built.set("k", JsonValue(2));
    built.set("b", JsonValue(0));
    built.set("k", JsonValue("last"));
    EXPECT_TRUE(built == value);
}

TEST(JsonValue, DeepNestingIsANamedError)
{
    const auto nested = [](size_t depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    EXPECT_EQ(JsonValue::parse(nested(512)).size(), 1u);
    try {
        JsonValue::parse(nested(513));
        FAIL() << "513 levels must not parse";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("json parse error at offset 513: arrays and "
                            "objects nested more than 512 levels deep"),
                  std::string::npos)
            << error.what();
    }
    EXPECT_THROW(JsonValue::parse(nested(200000)), FatalError);
    EXPECT_THROW(JsonValue::parse(std::string(200000, '[')), FatalError);
    std::string objects;
    for (int i = 0; i < 600; ++i)
        objects += "{\"k\":";
    EXPECT_THROW(JsonValue::parse(objects + "0" + std::string(600, '}')),
                 FatalError);
}

namespace
{

/** Write @a value through @a writer, opening and closing each of its
 *  arrays and objects. */
void
stream(JsonWriter &writer, const JsonValue &value)
{
    if (value.kind() == JsonValue::Kind::Array) {
        writer.beginArray();
        for (size_t i = 0; i < value.size(); ++i)
            stream(writer, value.at(i));
        writer.end();
    } else if (value.kind() == JsonValue::Kind::Object) {
        writer.beginObject();
        for (const auto &[key, member] : value.members()) {
            writer.key(key);
            stream(writer, member);
        }
        writer.end();
    } else {
        writer.value(value);
    }
}

/** The what() of @a read's FatalError; empty when it succeeds. */
template <typename Read>
std::string
errorOf(Read read)
{
    try {
        read();
    } catch (const FatalError &error) {
        return error.what();
    }
    return "";
}

} // namespace

TEST(JsonWriter, StreamsTheBytesDumpWrites)
{
    const JsonValue value = JsonValue::parse(
        R"({"a":[1,[],{},{"b":[2,-3]}],"c":{"d":"e\n\"","f":-1.5},"g":[]})");
    for (int indent : {0, 2, 4}) {
        for (int compact : {0, 1, 2, 3, INT_MAX}) {
            std::string out;
            JsonWriter writer(out, indent, compact);
            stream(writer, value);
            EXPECT_EQ(out, value.dump(indent, compact))
                << "indent " << indent << ", compact depth " << compact;
        }
    }
    // Whole values at any level, and a scalar root.
    std::string out;
    JsonWriter writer(out, 2, 2);
    writer.beginObject();
    writer.key("a");
    writer.value(value.at("a"));
    writer.key("c");
    writer.beginObject();
    writer.key("d");
    writer.value(value.at("c").at("d"));
    writer.key("f");
    writer.value(value.at("c").at("f"));
    writer.end();
    writer.key("g");
    writer.value(value.at("g"));
    writer.end();
    EXPECT_EQ(out, value.dump(2, 2));
    std::string scalar;
    JsonWriter(scalar, 2).value(JsonValue(5));
    EXPECT_EQ(scalar, JsonValue(5).dump(2));
}

TEST(JsonReader, DefersMembersAndKeepsTheParserErrors)
{
    const std::string text = R"({"list": [{"x": 1}, [2], "three"],
        "kept": [true, {"k": 2}], "list": [{"x": 4}, 5], "other": 6})";
    const JsonValue whole = JsonValue::parse(text);
    const JsonReader reader(text, {"list", "absent"});
    EXPECT_EQ(reader.head().dump(), R"({"kept":[true,{"k":2}],"other":6})");
    std::vector<std::string> seen;
    reader.forEach("list", [&](const JsonValue &element) {
        seen.push_back(element.dump());
    });
    EXPECT_EQ(seen, (std::vector<std::string>{R"({"x":4})", "5"}));
    // A member the head holds, or none at all, reads as JsonValue
    // would have it.
    seen.clear();
    reader.forEach("kept", [&](const JsonValue &element) {
        seen.push_back(element.dump());
    });
    EXPECT_EQ(seen, (std::vector<std::string>{"true", R"({"k":2})"}));
    EXPECT_EQ(errorOf([&] { reader.forEach("absent", [](auto &) {}); }),
              errorOf([&] { whole.at("absent"); }));
    EXPECT_EQ(errorOf([&] { reader.forEach("other", [](auto &) {}); }),
              errorOf([&] { whole.at("other").size(); }));

    // A root that is not an object has no head.
    const std::string root_array = "[1, 2]";
    const JsonReader array(root_array, {"list"});
    EXPECT_TRUE(array.head().isNull());
    EXPECT_EQ(errorOf([&] { array.forEach("list", [](auto &) {}); }),
              errorOf([&] { JsonValue::parse(root_array).at("list"); }));

    // Every syntax error, in a deferred member or not, at the offset
    // parse() names.
    const std::vector<std::string> malformed = {
        "", "  ", "{", "[1, 2", "{\"list\": [1, 2,]}",
        "{\"list\": [1e]}", "{\"list\": [\"\\q\"]}",
        "{\"list\": [\"\\u12g4\"]}", "{\"list\": [\"open]}",
        "{\"a\": tru}", "{\"a\" 1}", "{\"list\": []} x",
        "{\"list\": [nul]}", "{1: 2}", std::string(513, '['),
        "{\"list\": " + std::string(512, '[')};
    for (const std::string &bad : malformed) {
        const std::string expected =
            errorOf([&] { JsonValue::parse(bad); });
        EXPECT_NE(expected, "") << bad;
        EXPECT_EQ(errorOf([&] { JsonReader(bad, {"list"}); }), expected)
            << bad;
        EXPECT_EQ(errorOf([&] { JsonReader(bad, {}); }), expected) << bad;
    }
}
