#include "request_trace.hh"

#include <algorithm>

namespace beacon::obs
{

namespace
{

/**
 * Attribution priority when component spans overlap: DRAM media time
 * wins over the switch span that encloses the hop, which wins over
 * the link span, which wins over PE compute. Matches the SpanKind
 * numeric order, asserted here so a reordering of the enum cannot
 * silently change breakdowns.
 */
static_assert(int(SpanKind::Queue) < int(SpanKind::Pe) &&
                  int(SpanKind::Pe) < int(SpanKind::Link) &&
                  int(SpanKind::Link) < int(SpanKind::Switch) &&
                  int(SpanKind::Switch) < int(SpanKind::Dram),
              "SpanKind must stay in attribution-priority order");

} // namespace

RequestTrace::RequestTrace(const EventQueue &eq, std::size_t max_jobs)
    : eq(eq), max_jobs(max_jobs ? max_jobs : 1)
{
}

void
RequestTrace::finishJob(std::uint64_t job, Tick end)
{
    auto it = open.find(job);
    if (it == open.end())
        return;
    Open &o = it->second;

    JobRecord rec;
    rec.job = job;
    rec.tenant = o.tenant;
    rec.submit = o.submit;
    rec.end = end < o.submit ? o.submit : end;
    rec.n_spans = std::uint32_t(o.spans.size());

    // Integer sweep-line over [submit, end]: clip spans to the job
    // lifetime, cut time at every span boundary, and attribute each
    // segment to the highest-priority span covering it (none ->
    // Queue). Every tick lands in exactly one bucket, so the
    // components sum to end - submit by construction.
    std::vector<CompSpan> spans;
    spans.reserve(o.spans.size());
    std::vector<Tick> cuts;
    cuts.reserve(2 * o.spans.size() + 2);
    cuts.push_back(rec.submit);
    cuts.push_back(rec.end);
    for (const CompSpan &s : o.spans) {
        const Tick a = std::max(s.a, rec.submit);
        const Tick b = std::min(s.b, rec.end);
        if (a >= b)
            continue;
        spans.push_back(CompSpan{s.kind, a, b});
        cuts.push_back(a);
        cuts.push_back(b);
    }
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const Tick lo = cuts[i];
        const Tick hi = cuts[i + 1];
        SpanKind best = SpanKind::Queue;
        for (const CompSpan &s : spans) {
            if (s.a <= lo && s.b >= hi && int(s.kind) > int(best))
                best = s.kind;
        }
        rec.comp[std::size_t(best)] += hi - lo;
    }

    open.erase(it);
    if (done.size() >= max_jobs) {
        ++dropped;
        return;
    }
    done.push_back(rec);
}

void
RequestTrace::jobBegin(std::uint64_t job, std::uint32_t tenant)
{
    if (job == 0)
        return;
    Open &o = open[job];
    o.tenant = tenant;
    o.submit = eq.now();
}

void
RequestTrace::recordSpan(std::uint64_t job, SpanKind kind, Tick start,
                         Tick end)
{
    if (job == 0)
        return;
    auto it = open.find(job);
    if (it == open.end())
        return; // job already finished/rejected or never began
    it->second.spans.push_back(CompSpan{kind, start, end});
}

void
RequestTrace::jobEnd(std::uint64_t job)
{
    if (job == 0)
        return;
    finishJob(job, eq.now());
}

void
RequestTrace::jobReject(std::uint64_t job)
{
    if (job == 0)
        return;
    open.erase(job);
}

TenantBreakdown
RequestTrace::tenantBreakdown(std::uint32_t tenant) const
{
    TenantBreakdown agg;
    for (const JobRecord &rec : done) {
        if (rec.tenant != tenant)
            continue;
        ++agg.jobs;
        agg.total_latency += rec.latency();
        for (std::size_t k = 0; k < num_span_kinds; ++k)
            agg.comp[k] += rec.comp[k];
    }
    return agg;
}

void
RequestTrace::writeJson(std::ostream &os) const
{
    os << "{\n\"schema\": \"beacon-reqtrace-1\",\n";
    os << "\"dropped_jobs\": " << dropped << ",\n";
    os << "\"open_jobs\": " << open.size() << ",\n";
    os << "\"jobs\": [";
    bool first = true;
    for (const JobRecord &rec : done) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"job\":" << rec.job << ",\"tenant\":" << rec.tenant
           << ",\"submit\":" << rec.submit << ",\"end\":" << rec.end
           << ",\"latency\":" << rec.latency() << ",\"spans\":"
           << rec.n_spans << ",\"breakdown\":{";
        for (std::size_t k = 0; k < num_span_kinds; ++k) {
            if (k)
                os << ",";
            os << "\"" << spanKindName(SpanKind(k))
               << "\":" << rec.comp[k];
        }
        os << "}}";
    }
    os << "\n]\n}\n";
}

} // namespace beacon::obs
