// Fixture: a miniature EventQueue at the real header path — the
// legal include target of the obs tap (obs -> sim) and of the sim
// engine (same module).

#ifndef FIXTURE_SIM_EVENT_QUEUE_HH
#define FIXTURE_SIM_EVENT_QUEUE_HH

#include "common/util.hh"

namespace fixture
{

class EventQueue
{
  public:
    unsigned long now() const { return tick; }

  private:
    unsigned long tick = 0;
};

} // namespace fixture

#endif // FIXTURE_SIM_EVENT_QUEUE_HH
