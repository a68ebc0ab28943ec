// Fixture: the bottom of the layer DAG — clean.

#ifndef FIXTURE_COMMON_UTIL_HH
#define FIXTURE_COMMON_UTIL_HH

namespace fixture
{

inline int
clampLevel(int level)
{
    return level < 0 ? 0 : level;
}

} // namespace fixture

#endif // FIXTURE_COMMON_UTIL_HH
