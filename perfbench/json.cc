#include "json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw std::domain_error("JSON cannot carry a non-finite number");
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x",
                              unsigned(static_cast<unsigned char>(c)));
                out += esc;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

JsonObject &
JsonObject::member(const std::string &key, const std::string &text)
{
    if (!body.empty())
        body += ", ";
    body += jsonString(key) + ": " + text;
    return *this;
}

JsonObject &
JsonObject::add(const std::string &key, double value)
{
    return member(key, jsonNumber(value));
}

JsonObject &
JsonObject::add(const std::string &key, std::uint64_t value)
{
    return member(key, std::to_string(value));
}

JsonObject &
JsonObject::add(const std::string &key, bool value)
{
    return member(key, value ? "true" : "false");
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &value)
{
    return member(key, jsonString(value));
}

JsonObject &
JsonObject::add(const std::string &key, const JsonObject &value)
{
    return member(key, value.str());
}

} // namespace perfbench
