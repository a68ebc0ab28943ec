/**
 * @file
 * The JSON writer must refuse NaN and infinity instead of emitting
 * text no JSON reader accepts, and must round-trip finite values.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "json.hh"

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

bool
refuses(double value)
{
    try {
        perfbench::JsonObject().add("x", value);
    } catch (const std::domain_error &) {
        return true;
    }
    return false;
}

} // namespace

int
main()
{
    const double inf = std::numeric_limits<double>::infinity();
    expect(refuses(std::nan("")), "NaN is refused");
    expect(refuses(-std::nan("")), "-NaN is refused");
    expect(refuses(inf), "+inf is refused");
    expect(refuses(-inf), "-inf is refused");
    // The geomean of an empty or zero series, as a harness computes it.
    expect(refuses(std::exp(std::log(0.0) - std::log(0.0))),
           "computed NaN is refused");

    const double v = 1.2034567891234567;
    expect(std::strtod(perfbench::jsonNumber(v).c_str(), nullptr) == v,
           "finite value round-trips exactly");
    expect(perfbench::jsonNumber(0.1) == "0.1",
           "shortest form is used");
    expect(perfbench::JsonObject()
                   .add("a", 1.5)
                   .add("b", std::uint64_t(7))
                   .add("c", true)
                   .add("d", std::string("q\"x"))
                   .add("e", perfbench::JsonObject().add("f", 2.0))
                   .str() ==
               R"({"a": 1.5, "b": 7, "c": true, "d": "q\"x", )"
               R"("e": {"f": 2}})",
           "object layout");

    if (failures == 0)
        std::printf("json writer: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
