/**
 * @file
 * Minimal JSON emission for the benchmark's result lines.
 *
 * The writer refuses NaN and infinity: JSON has no spelling for them,
 * and a result line carrying "-nan" is unreadable by every consumer.
 */

#ifndef PERFBENCH_JSON_HH
#define PERFBENCH_JSON_HH

#include <cstdint>
#include <string>

namespace perfbench
{

/**
 * Shortest decimal text that reads back as exactly @p value.
 * @throws std::domain_error when @p value is NaN or infinite.
 */
std::string jsonNumber(double value);

/** @p text as a quoted JSON string with the required escapes. */
std::string jsonString(const std::string &text);

/** A JSON object built member by member, in insertion order. */
class JsonObject
{
  public:
    /** @throws std::domain_error when @p value is not finite. */
    JsonObject &add(const std::string &key, double value);
    JsonObject &add(const std::string &key, std::uint64_t value);
    JsonObject &add(const std::string &key, bool value);
    JsonObject &add(const std::string &key, const std::string &value);
    JsonObject &add(const std::string &key, const JsonObject &value);

    /** The object's text, on one line. */
    std::string str() const { return "{" + body + "}"; }

  private:
    JsonObject &member(const std::string &key, const std::string &text);

    std::string body;
};

} // namespace perfbench

#endif // PERFBENCH_JSON_HH
