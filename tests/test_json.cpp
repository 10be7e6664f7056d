/**
 * @file
 * Tests for the streaming JSON writer and TablePrinter JSON output.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>

#include "util/json.hpp"
#include "util/table.hpp"

namespace rfc {
namespace {

TEST(JsonWriter, EscapesSpecialCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("line\nbreak"), "line\\nbreak");
    EXPECT_EQ(JsonWriter::escape("tab\there"), "tab\\there");
    EXPECT_EQ(JsonWriter::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriter, FormatDoubleRoundTrips)
{
    for (double v : {0.1, 1.0 / 3.0, 2.5e-8, 9.87654321e12,
                     0.09828014184397163, -1.25}) {
        EXPECT_EQ(std::stod(JsonWriter::formatDouble(v)), v)
            << JsonWriter::formatDouble(v);
    }
    // Integral values take the short form.
    EXPECT_EQ(JsonWriter::formatDouble(5.0), "5");
    EXPECT_EQ(JsonWriter::formatDouble(-3.0), "-3");
    EXPECT_EQ(JsonWriter::formatDouble(0.0), "0");
}

TEST(JsonWriter, NonFiniteBecomesNull)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginArray();
    w.value(std::numeric_limits<double>::quiet_NaN());
    w.value(std::numeric_limits<double>::infinity());
    w.endArray();
    EXPECT_NE(os.str().find("null"), std::string::npos);
    EXPECT_EQ(os.str().find("nan"), std::string::npos);
    EXPECT_EQ(os.str().find("inf"), std::string::npos);
}

TEST(JsonWriter, NestedDocumentHasCommasAndIndent)
{
    std::ostringstream os;
    JsonWriter w(os, 2);
    w.beginObject();
    w.kv("name", "run");
    w.kv("trials", static_cast<std::int64_t>(40));
    w.kv("ok", true);
    w.key("points");
    w.beginArray();
    w.beginObject();
    w.kv("load", 0.5);
    w.endObject();
    w.beginObject();
    w.kv("load", 1.0);
    w.endObject();
    w.endArray();
    w.key("none");
    w.value(std::numeric_limits<double>::quiet_NaN());  // JSON has no NaN
    w.endObject();

    const std::string expected = "{\n"
                                 "  \"name\": \"run\",\n"
                                 "  \"trials\": 40,\n"
                                 "  \"ok\": true,\n"
                                 "  \"points\": [\n"
                                 "    {\n"
                                 "      \"load\": 0.5\n"
                                 "    },\n"
                                 "    {\n"
                                 "      \"load\": 1\n"
                                 "    }\n"
                                 "  ],\n"
                                 "  \"none\": null\n"
                                 "}\n";
    EXPECT_EQ(os.str(), expected);
}

TEST(JsonWriter, EmptyContainersStayOnOneLine)
{
    std::ostringstream os;
    JsonWriter w(os, 2);
    w.beginObject();
    w.key("empty");
    w.beginArray();
    w.endArray();
    w.endObject();
    EXPECT_NE(os.str().find("[]"), std::string::npos);
}

TEST(JsonWriter, ValueInsideObjectWithoutKeyThrows)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    EXPECT_THROW(w.value("stray"), std::logic_error);
    EXPECT_THROW(w.value(1.5), std::logic_error);
    EXPECT_THROW(w.value(static_cast<std::int64_t>(1)), std::logic_error);
    EXPECT_THROW(w.value(true), std::logic_error);
    EXPECT_THROW(w.value(static_cast<std::uint64_t>(1)), std::logic_error);
    EXPECT_THROW(w.beginArray(), std::logic_error);
    EXPECT_THROW(w.beginObject(), std::logic_error);
    // The writer stays usable after the rejected calls.
    w.kv("ok", true);
    w.endObject();
    EXPECT_NE(os.str().find("\"ok\": true"), std::string::npos);
}

TEST(JsonWriter, CloseOrderMisuseThrows)
{
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginObject();
        EXPECT_THROW(w.endArray(), std::logic_error);  // wrong closer
        w.endObject();
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginArray();
        EXPECT_THROW(w.endObject(), std::logic_error);  // wrong closer
        w.endArray();
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        EXPECT_THROW(w.endObject(), std::logic_error);  // nothing open
        EXPECT_THROW(w.endArray(), std::logic_error);
    }
}

TEST(JsonWriter, DanglingKeyMisuseThrows)
{
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.key("k");
    EXPECT_THROW(w.endObject(), std::logic_error);  // key without value
    EXPECT_THROW(w.key("again"), std::logic_error); // key after key
    w.value(1.0);  // resolve the pending key
    w.endObject();
    EXPECT_NE(os.str().find("\"k\": 1"), std::string::npos);
}

TEST(JsonWriter, KeyOutsideObjectThrows)
{
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        EXPECT_THROW(w.key("top-level"), std::logic_error);
    }
    {
        std::ostringstream os;
        JsonWriter w(os, 0);
        w.beginArray();
        EXPECT_THROW(w.key("in-array"), std::logic_error);
        w.endArray();
    }
}

TEST(JsonWriter, EscapesAllControlCharactersAndKeys)
{
    // Every byte below 0x20 must come out escaped; the common ones get
    // short forms, the rest \u00XX.
    for (int c = 1; c < 0x20; ++c) {
        std::string esc = JsonWriter::escape(std::string(1, static_cast<char>(c)));
        ASSERT_GE(esc.size(), 2u) << "char " << c;
        EXPECT_EQ(esc[0], '\\') << "char " << c;
    }
    EXPECT_EQ(JsonWriter::escape("\r"), "\\r");
    // Keys pass through the same escaping as values.
    std::ostringstream os;
    JsonWriter w(os, 0);
    w.beginObject();
    w.kv("quote\"key", "tab\tvalue");
    w.endObject();
    EXPECT_NE(os.str().find("quote\\\"key"), std::string::npos);
    EXPECT_NE(os.str().find("tab\\tvalue"), std::string::npos);
}

TEST(TablePrinter, PrintJsonEmitsOneObjectPerRow)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"beta", "2.5"});
    std::ostringstream os;
    JsonWriter w(os);
    t.writeJson(w);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"name\": \"alpha\""), std::string::npos);
    EXPECT_NE(out.find("\"name\": \"beta\""), std::string::npos);
    EXPECT_NE(out.find("\"value\""), std::string::npos);
    // Two row objects inside one array.
    EXPECT_EQ(out.front(), '[');
}

} // namespace
} // namespace rfc
