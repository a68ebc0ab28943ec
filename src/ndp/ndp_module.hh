/**
 * @file
 * The NDP module (Fig. 5 b): PEs, Task Scheduler, and I/O buffer.
 *
 * One NDP module sits on each CXLG-DIMM (BEACON-D) or inside each
 * CXL-Switch's Switch-Logic (BEACON-S). It owns a pool of
 * fixed-function PEs and a Task Scheduler with incoming (waiting for
 * operands) and outgoing (ready to run) queues.
 *
 * Memory accesses are delegated to the owner through an IssueFn so
 * the module stays independent of the fabric and address-mapping
 * layers: the owner implements the Address Translator + MC path and
 * calls the completion callback when the operand is back.
 */

#ifndef BEACON_NDP_NDP_MODULE_HH
#define BEACON_NDP_NDP_MODULE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "check/checker_config.hh"
#include "ndp/task.hh"
#include "obs/trace.hh"
#include "sim/sim_object.hh"

namespace beacon
{

/** NDP module configuration. */
struct NdpModuleParams
{
    unsigned num_pes = 128;      //!< 128 per CXLG-DIMM, 256 per switch
    Tick pe_clock_ps = 1250;     //!< PE clock = DRAM bus clock
    /** Max tasks resident (incoming + outgoing + running). */
    unsigned max_inflight_tasks = 512;
    /** Verification switch; arms the accounting invariant checks. */
    CheckerConfig checkers;
    /**
     * Ticks between a task's last step retiring on the module and
     * the completion notification (on_done / the module observer)
     * firing — the completion interrupt's trip back to the
     * host-side driver. 0 runs the observers inline.
     */
    Tick done_notify_delay = 0;
};

/**
 * The NDP module: schedules tasks over PEs and issues their memory
 * accesses through the owner-provided path.
 */
class NdpModule : public SimObject
{
  public:
    /**
     * Owner-side memory path: perform @p request for this module and
     * invoke the callback when the data is available / the write or
     * atomic has been acknowledged.
     */
    using IssueFn = std::function<void(const AccessRequest &request,
                                       Completion on_complete)>;

    /** Called whenever a task finishes (for workload refill). */
    using TaskDoneFn = std::function<void()>;

    NdpModule(const std::string &name, EventQueue &eq,
              StatRegistry &stats, const NdpModuleParams &params,
              IssueFn issue_fn);

    /** True if the module can accept another task right now. */
    bool
    canAccept() const
    {
        return resident_tasks < p.max_inflight_tasks;
    }

    /**
     * Submit a task; the scheduler will dispatch it to a PE.
     * @p on_done (optional) fires when this particular task
     * completes, before the module-level observer — the hook the
     * multi-tenant orchestrator uses for per-job accounting.
     */
    void submit(TaskPtr task, TaskDoneFn on_done = nullptr);

    /** Register a completion observer (single observer). */
    void setTaskDoneFn(TaskDoneFn fn) { task_done = std::move(fn); }

    std::uint64_t tasksCompleted() const { return tasks_completed; }
    std::uint64_t accessesIssued() const { return accesses_issued; }
    std::uint64_t accessesCompleted() const
    {
        return accesses_completed;
    }
    unsigned residentTasks() const { return resident_tasks; }

    /**
     * End-of-run accounting validation (checkers.enabled):
     * once every dispatched task has completed, the module must be
     * empty and every issued access must have completed.
     */
    void finalizeCheck() const;

    /** Total PE-busy ticks (for PE energy accounting). */
    Tick peBusyTicks() const { return pe_busy_ticks; }

    /** PE-busy ticks attributed to each tenant that ran here. */
    const std::map<TenantId, Tick> &
    peBusyByTenant() const
    {
        return pe_busy_by_tenant;
    }

    const NdpModuleParams &params() const { return p; }

  private:
    struct PendingTask
    {
        TaskPtr task;
        TaskDoneFn on_done;
        unsigned outstanding_accesses = 0;
        /** Residency span submit -> completion (no-op when off). */
        obs::TraceSpan span;
        unsigned slot = 0;
    };

    /** Dispatch ready tasks onto idle PEs. */
    void dispatch();

    /** Run one step of @p pending on a PE (consumes a PE slot). */
    void runStep(std::unique_ptr<PendingTask> pending);

    /** A step's accesses have all completed: task is ready again. */
    void operandsReady(std::unique_ptr<PendingTask> pending);

    /** Fire the completion observers after done_notify_delay. */
    void notifyDone(TaskDoneFn on_done);

    NdpModuleParams p;
    IssueFn issue;
    TaskDoneFn task_done;

    /** Outgoing queue: ready-to-run tasks. */
    std::deque<std::unique_ptr<PendingTask>> ready_queue;
    unsigned busy_pes = 0;
    unsigned resident_tasks = 0;

    std::uint64_t tasks_completed = 0;
    std::uint64_t accesses_issued = 0;
    std::uint64_t accesses_completed = 0;
    Tick pe_busy_ticks = 0;
    /** Per-tenant PE-busy attribution; the conservation invariant
     *  (sum over tenants == pe_busy_ticks) is test-enforced. */
    std::map<TenantId, Tick> pe_busy_by_tenant;

    Counter &stat_tasks;
    Counter &stat_accesses;
    Counter &stat_steps;
    Counter &stat_pe_busy;

    /** Lazily created "tenant<k>.peBusyTicks" registry counters. */
    Counter &tenantBusyStat(TenantId tenant);
    std::map<TenantId, Counter *> tenant_busy_stats;

    // Tracing (null when off): tasks occupy numbered slot tracks so
    // concurrent residency spans never overlap within one track.
    obs::TraceSink *trace = nullptr;
    obs::TrackId trace_mod = 0;
    std::vector<char> slot_busy;
    std::vector<obs::TrackId> slot_tracks;
    std::uint64_t submit_seq = 0;

    /** Lowest free slot track, growing the pool as needed. */
    unsigned acquireSlot();
};

} // namespace beacon

#endif // BEACON_NDP_NDP_MODULE_HH
