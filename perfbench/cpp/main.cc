/**
 * @file
 * dcbatt_perfbench — the measuring half of the dcbatt benchmark
 * (perfbench/run.py builds it, launches it and prints the result).
 *
 *   dcbatt_perfbench --workload paper_sweep|region_day|region_day_serial
 *                    [--seed N] [--seconds S] [--mode timed|setup|trace]
 *                    [--short] [--corrupt-reference]
 *
 * Modes:
 *   timed  set up, then run the workload's operations back to back
 *          (a closed loop on one process) for S seconds with tracing
 *          off, then check every operation against a reference run
 *          made afterwards by another execution path.
 *   setup  only the set-up; run.py launches this in fresh processes
 *          so the reported set-up time is a median of cold set-ups.
 *   trace  the per-layer run: an untraced pass, then the same
 *          operations with spans and the invariant auditor armed,
 *          counters snapshotted around it, then the per-layer
 *          calibrations (layers.h).
 *
 * The last line of stdout is one JSON object; everything else goes to
 * stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/charging_event_sim.h"
#include "obs/metrics.h"
#include "obs/trace_span.h"
#include "sim/region_engine.h"
#include "sim/sweep_runner.h"
#include "trace/trace_cache.h"
#include "util/thread_pool.h"

#include "layers.h"
#include "workloads.h"

using namespace dcbatt;
using namespace dcbatt::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMib()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Linear-interpolated percentile (0 <= q <= 1) of @p values. */
double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = q * static_cast<double>(values.size() - 1);
    auto lo = static_cast<size_t>(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

struct Args
{
    Workload workload = Workload::PaperSweep;
    uint64_t seed = 42;
    double seconds = 10.0;
    std::string mode = "timed";
    bool shortMode = false;
    bool corruptReference = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "dcbatt_perfbench: %s\nusage: dcbatt_perfbench "
                 "--workload paper_sweep|region_day|region_day_serial "
                 "[--seed N] [--seconds S] [--mode timed|setup|trace] "
                 "[--short] [--corrupt-reference]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("flag " + flag + " needs a value").c_str());
            return argv[++i];
        };
        if (flag == "--workload") {
            if (!parseWorkload(value(), args.workload))
                usage("unknown workload");
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value().c_str());
            if (!(args.seconds > 0.0))
                usage("--seconds must be positive");
        } else if (flag == "--mode") {
            args.mode = value();
            if (args.mode != "timed" && args.mode != "setup"
                && args.mode != "trace")
                usage("--mode must be timed, setup or trace");
        } else if (flag == "--short") {
            args.shortMode = true;
        } else if (flag == "--corrupt-reference") {
            args.corruptReference = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return args;
}

/** Collects metrics and prints the result line. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        std::fprintf(stderr, "  %-36s %14.6g %s\n", name.c_str(), value,
                     unit);
        metrics_ += util::strf("%s\"%s\": {\"value\": %.17g, "
                               "\"unit\": \"%s\"}",
                               metrics_.empty() ? "" : ", ",
                               name.c_str(),
                               std::isfinite(value) ? value : -1.0,
                               unit);
    }

    void
    print(int attempted, int failed) const
    {
        std::fprintf(stderr, "  %-36s %14.6g %s  (%d of %d)\n",
                     "ops_failed_frac",
                     attempted > 0
                         ? static_cast<double>(failed) / attempted
                         : 1.0,
                     "ratio", failed, attempted);
        std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": "
                    "%d, \"metrics\": {%s}}\n",
                    failed == 0 && attempted > 0 ? "true" : "false",
                    attempted, failed, metrics_.c_str());
        std::fflush(stdout);
    }

  private:
    std::string metrics_;
};

/** Host-time measurements of one pass of operations. */
struct Timing
{
    std::vector<double> opMs;
    double wallS = 0.0;
    double cpuS = 0.0;
    double rackHours = 0.0;
};

/** One pass of operations: their outcomes and how long they took. */
template <typename Outcome>
struct Pass
{
    std::vector<Outcome> outcomes;
    Timing timing;
};

const size_t kUnbounded = static_cast<size_t>(-1);

// --- paper_sweep ------------------------------------------------------

using EventPass = Pass<EventOutcome>;

class PaperSweep
{
  public:
    explicit PaperSweep(const Args &args)
        : args_(args), grid_(paperGrid(args.shortMode)),
          order_(visitOrder(grid_.size())),
          traceSpec_(paperTraceSpec(args.seed))
    {
    }

    /**
     * Trace synthesis through the process-wide cache, then one
     * untimed warm-up event (first-event arena growth, SLA memo and
     * page faults). Returns the set-up seconds.
     */
    double
    setUp(std::optional<util::Seconds> audit = std::nullopt)
    {
        obs::TraceSpan span("perfbench.setup");
        auto start = Clock::now();
        traces_ = trace::sharedTraces(traceSpec_);
        traces_->warmCaches();
        runOne(order_[0], audit);
        return secondsSince(start);
    }

    /**
     * Run events in visit order until @p seconds have passed and
     * @p min_events have run, or until @p max_events have run.
     */
    EventPass
    run(double seconds, size_t min_events, size_t max_events,
        std::optional<util::Seconds> audit = std::nullopt)
    {
        EventPass pass;
        const double cpu0 = processCpuSeconds();
        auto start = Clock::now();
        for (size_t k = 0; k < max_events; ++k) {
            if (k >= min_events && secondsSince(start) >= seconds)
                break;
            size_t index = order_[k % order_.size()];
            auto event_start = Clock::now();
            pass.outcomes.push_back(
                runOne(index, audit, &pass.timing.rackHours));
            pass.timing.opMs.push_back(secondsSince(event_start) * 1e3);
        }
        pass.timing.wallS = secondsSince(start);
        pass.timing.cpuS = processCpuSeconds() - cpu0;
        return pass;
    }

    /**
     * Reference digests from the same grid fanned out through
     * sim::SweepRunner on min(4, nproc) workers.
     */
    std::vector<uint64_t>
    reference() const
    {
        std::vector<sim::SweepTask> tasks;
        for (const GridPoint &point : grid_) {
            sim::SweepTask task;
            task.config = paperEventConfig(point);
            task.traces = traces_.get();
            tasks.push_back(std::move(task));
        }
        util::ThreadPool pool(parallelWorkers());
        sim::SweepRunner runner(pool);
        std::vector<core::ChargingEventResult> results = runner.run(tasks);
        std::vector<uint64_t> digests;
        for (const core::ChargingEventResult &result : results)
            digests.push_back(digestEvent(result));
        if (args_.corruptReference)
            digests[order_[0]] ^= 1;
        return digests;
    }

    /**
     * Failed events of @p pass: the checks run on each cycle through
     * the grid separately, so the P1 comparison pairs events of the
     * same cycle.
     */
    int
    check(const EventPass &pass, const std::vector<uint64_t> &ref) const
    {
        int failed = 0;
        for (size_t first = 0; first < pass.outcomes.size();
             first += grid_.size()) {
            size_t last = std::min(first + grid_.size(),
                                   pass.outcomes.size());
            std::vector<EventOutcome> cycle(
                pass.outcomes.begin() + static_cast<long>(first),
                pass.outcomes.begin() + static_cast<long>(last));
            failed += checkPaperEvents(grid_, cycle, ref);
        }
        return failed;
    }

    int racks() const { return traceSpec_.rackCount; }
    size_t gridSize() const { return grid_.size(); }
    const trace::TraceGenSpec &traceSpec() const { return traceSpec_; }

  private:
    EventOutcome
    runOne(size_t index, std::optional<util::Seconds> audit,
           double *rack_hours = nullptr) const
    {
        EventOutcome outcome;
        outcome.gridIndex = index;
        core::ChargingEventConfig config = paperEventConfig(grid_[index]);
        config.auditInterval = audit;
        try {
            obs::TraceSpan span("perfbench.event");
            core::ChargingEventResult result =
                core::runChargingEvent(config, *traces_);
            outcome.digest = digestEvent(result);
            outcome.p1Met = result.slaMetByPriority[0];
            outcome.breakerTripped = result.breakerTripped;
            if (rack_hours)
                *rack_hours += rackHours(result, racks());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: event aborted: %s\n",
                         e.what());
            outcome.aborted = true;
        }
        return outcome;
    }

    const Args &args_;
    std::vector<GridPoint> grid_;
    std::vector<size_t> order_;
    trace::TraceGenSpec traceSpec_;
    std::shared_ptr<const trace::TraceSet> traces_;
};

// --- region_day / region_day_serial -----------------------------------

using RegionPass = Pass<RegionOutcome>;

class RegionDay
{
  public:
    explicit RegionDay(const Args &args)
        : args_(args), spec_(regionSpec(args.seed, args.shortMode)),
          threads_(regionThreads(args.workload)),
          cpus_(cpusFor(args.workload)),
          singleCpu_(args.workload == Workload::RegionDaySerial)
    {
    }

    /**
     * runRegion on the spec truncated to one coordination period (pool
     * start-up, shard construction, first trace windows). Returns its
     * seconds, the set-up time.
     */
    double
    setUp(bool audit = false) const
    {
        SingleCpuScope pin(singleCpu_);
        obs::TraceSpan span("perfbench.setup");
        power::RegionSpec setup = regionSetupSpec(spec_);
        if (audit)
            setup.auditInterval = kAudit;
        auto start = Clock::now();
        sim::runRegion(setup, options(threads_));
        return secondsSince(start);
    }

    /**
     * One untimed run of the full spec, so that the process's first
     * full run (heap growth, page faults) stays out of the timed
     * samples. Its time goes to stderr only.
     */
    void
    warmUp() const
    {
        SingleCpuScope pin(singleCpu_);
        auto start = Clock::now();
        runOne(spec_, threads_);
        std::fprintf(stderr, "perfbench: warm-up run %.3f s\n",
                     secondsSince(start));
    }

    /**
     * Run the region until @p seconds have passed and @p min_runs have
     * run, or until @p max_runs have run.
     */
    RegionPass
    run(double seconds, size_t min_runs, size_t max_runs,
        bool audit = false) const
    {
        SingleCpuScope pin(singleCpu_);
        power::RegionSpec spec = spec_;
        if (audit)
            spec.auditInterval = kAudit;
        RegionPass pass;
        const double cpu0 = processCpuSeconds();
        auto start = Clock::now();
        for (size_t k = 0; k < max_runs; ++k) {
            if (k >= min_runs && secondsSince(start) >= seconds)
                break;
            auto run_start = Clock::now();
            pass.outcomes.push_back(runOne(spec, threads_));
            pass.timing.opMs.push_back(secondsSince(run_start) * 1e3);
            pass.timing.rackHours += rackHours(spec);
        }
        pass.timing.wallS = secondsSince(start);
        pass.timing.cpuS = processCpuSeconds() - cpu0;
        return pass;
    }

    /**
     * Reference digest: the same spec on the other region workload's
     * thread count, with the process's own CPU affinity.
     */
    uint64_t
    reference() const
    {
        Workload other = singleCpu_ ? Workload::RegionDay
                                    : Workload::RegionDaySerial;
        RegionOutcome outcome = runOne(spec_, regionThreads(other));
        uint64_t digest = outcome.aborted ? 0 : outcome.digest;
        return args_.corruptReference ? digest ^ 1 : digest;
    }

    const power::RegionSpec &spec() const { return spec_; }
    unsigned cpus() const { return cpus_; }
    bool serial() const { return singleCpu_; }

  private:
    static inline const util::Seconds kAudit{600.0};

    static sim::RegionRunOptions
    options(unsigned workers)
    {
        sim::RegionRunOptions options;
        options.threads = workers;
        return options;
    }

    static RegionOutcome
    runOne(const power::RegionSpec &spec, unsigned workers)
    {
        try {
            obs::TraceSpan span("perfbench.region_run");
            return regionOutcome(sim::runRegion(spec, options(workers)));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: region run aborted: %s\n",
                         e.what());
            RegionOutcome outcome;
            outcome.aborted = true;
            return outcome;
        }
    }

    const Args &args_;
    power::RegionSpec spec_;
    /** runRegion threads, and the CPUs they run on. */
    unsigned threads_;
    unsigned cpus_;
    /** Timed runs confined to one CPU (region_day_serial). */
    bool singleCpu_;
};

// --- end-to-end metrics ----------------------------------------------

struct EndToEnd
{
    double rackHoursPerS = 0.0;
    double eventsPerS = 0.0;
    double eventMsP50 = 0.0;
    double eventMsP90 = 0.0;
};

/**
 * p90 of the op latencies. From 100 samples on (10 or more beyond it)
 * it is the plain p90. A shorter loop (a region workload makes about
 * 20 runs of 1.5 s or more) has only one or two samples beyond it, and
 * one slow phase of the shared host moves those by the whole slowdown.
 * There it is the median of the p90s of the loop's first, middle and
 * last thirds in run order, which such a phase moves in one third.
 */
double
eventP90(const std::vector<double> &op_ms)
{
    const size_t kPlainSamples = 100;
    if (op_ms.size() >= kPlainSamples || op_ms.size() < 3)
        return percentile(op_ms, 0.9);
    std::vector<double> p90s;
    for (size_t b = 0; b < 3; ++b) {
        auto first = op_ms.begin()
            + static_cast<long>(b * op_ms.size() / 3);
        auto last = op_ms.begin()
            + static_cast<long>((b + 1) * op_ms.size() / 3);
        p90s.push_back(percentile({first, last}, 0.9));
    }
    return percentile(p90s, 0.5);
}

EndToEnd
endToEnd(const Timing &t)
{
    EndToEnd e;
    e.rackHoursPerS = t.wallS > 0.0 ? t.rackHours / t.wallS : 0.0;
    e.eventsPerS = t.wallS > 0.0
        ? static_cast<double>(t.opMs.size()) / t.wallS
        : 0.0;
    e.eventMsP50 = percentile(t.opMs, 0.5);
    e.eventMsP90 = eventP90(t.opMs);
    return e;
}

void
reportEndToEnd(Report &report, const Timing &t, double setup_s)
{
    std::fprintf(stderr, "perfbench: %zu ops, ms:", t.opMs.size());
    for (double ms : t.opMs)
        std::fprintf(stderr, " %.0f", ms);
    std::fprintf(stderr, "\n");
    const EndToEnd e = endToEnd(t);
    report.metric("rack_hours_per_s", e.rackHoursPerS, "rack-h/s");
    report.metric("events_per_s", e.eventsPerS, "1/s");
    report.metric("event_ms_p50", e.eventMsP50, "ms");
    report.metric("event_ms_p90", e.eventMsP90, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mib", peakRssMib(), "MiB");
}

// --- traced run: per-layer metrics -------------------------------------

/** Counter increments between two registry snapshots. */
class CounterDelta
{
  public:
    CounterDelta(obs::MetricsSnapshot before, obs::MetricsSnapshot after)
        : before_(std::move(before)), after_(std::move(after))
    {
    }

    double
    operator()(const char *name) const
    {
        const obs::MetricValue *a = after_.find(name);
        const obs::MetricValue *b = before_.find(name);
        uint64_t delta = (a ? a->count : 0) - (b ? b->count : 0);
        return static_cast<double>(delta);
    }

  private:
    obs::MetricsSnapshot before_;
    obs::MetricsSnapshot after_;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * A ratio of two program counters; -1 when the workload's engine never
 * counts the denominator (e.g. runRegion folds no SLA-memo counters).
 */
double
countedRatio(double num, double den)
{
    return den > 0.0 ? num / den : -1.0;
}

/**
 * How much worse the traced run reads, in %: (slow - fast) / fast for a
 * time; pass (plain, traced) for a rate, which is the same time ratio.
 */
double
slowdownPct(double slow, double fast)
{
    return fast != 0.0 ? (slow - fast) / fast * 100.0 : 0.0;
}

/** What the traced run measured, common to every workload. */
struct TracedRun
{
    Timing plain;
    Timing traced;
    double plainSetupS = 0.0;
    double tracedSetupS = 0.0;
    unsigned workers = 1;
    /** Physics steps per MSB summed over the traced operations. */
    double msbSteps = 0.0;
    double rackSteps = 0.0;
    /** Share of rack-steps on the quiescent and lockstep paths. */
    double quiescentShare = -1.0;
    double lockstepShare = -1.0;
    /** Share of region coordination ticks in which some MSB recharges. */
    double rechargeTickShare = -1.0;
};

void
reportLayers(Report &report, const TracedRun &run, const CounterDelta &d,
             const LayerCosts &c)
{
    const double windows = d("trace.stream_windows_generated");
    const double ticks = d("dynamo.control_ticks");
    const double budget_ticks = d("region.coordination_ticks");
    const double batch_share = ratio(d("battery.batch_lanes"),
                                     run.rackSteps);
    const double memo_hits = d("core.sla_memo_hits");
    const double commands = d("dynamo.cmd_set_current")
        + d("dynamo.cmd_hold") + d("dynamo.cmd_resume");

    report.metric("trace.window_ms", c.traceWindowMs, "ms");
    report.metric("trace.windows_generated", windows, "count");
    report.metric("trace.refetch_ratio",
                  countedRatio(d("trace.stream_refetches"), windows), "ratio");
    report.metric("trace.synth_ms_per_rack_hour", c.synthMsPerRackHour,
                  "ms");
    report.metric("physics.quiescent_ns_per_rack", c.quiescentNsPerRack,
                  "ns");
    report.metric("physics.charging_ns_per_rack", c.chargingNsPerRack,
                  "ns");
    report.metric("physics.observe_ns_per_rack", c.observeNsPerRack,
                  "ns");
    report.metric("physics.rack_steps", run.rackSteps, "count");
    report.metric("physics.quiescent_share", run.quiescentShare, "ratio");
    report.metric("physics.lockstep_share", run.lockstepShare, "ratio");
    report.metric("physics.batch_lane_share", batch_share, "ratio");
    report.metric("sim.recharge_tick_share", run.rechargeTickShare,
                  "ratio");
    report.metric("dynamo.tick_us", c.tickUsRecharge, "us");
    report.metric("dynamo.control_ticks", ticks, "count");
    report.metric("dynamo.cap_reductions", d("dynamo.cap_reductions"),
                  "count");
    report.metric("dynamo.overload_episodes",
                  d("dynamo.overload_episodes"), "count");
    report.metric("coord.plan_us", c.planUs, "us");
    report.metric("coord.sla_memo_hit_ratio",
                  countedRatio(memo_hits,
                               memo_hits + d("core.sla_memo_misses")),
                  "ratio");
    report.metric("budget.split_us", c.splitUs, "us");
    report.metric("budget.ticks", budget_ticks, "count");
    report.metric("queue.ns_per_event", c.queueNsPerEvent, "ns");
    report.metric("engine.cpu_util",
                  ratio(run.plain.cpuS, run.plain.wallS * run.workers),
                  "ratio");
    report.metric("engine.cpu_s_per_rack_hour",
                  ratio(run.plain.cpuS, run.plain.rackHours), "s");

    // Layer estimates: calibrated cost x calls the workload made. The
    // share of control ticks spent recharging is taken to be the
    // share of rack-steps off the quiescent path (for the region,
    // which does not count its quiescent steps, the batch-lane share).
    const double charging_share = run.quiescentShare >= 0.0
        ? 1.0 - run.quiescentShare
        : batch_share;
    const double trace_s = windows * c.traceWindowMs / 1e3;
    const double physics_s = run.rackSteps
        * ((1.0 - charging_share) * c.quiescentNsPerRack
           + charging_share * c.chargingNsPerRack + c.observeNsPerRack)
        / 1e9;
    const double dynamo_s = ticks
        * ((1.0 - charging_share) * c.tickUsQuiescent
           + charging_share * c.tickUsRecharge)
        / 1e6;
    const double coord_s = ticks * charging_share * c.planUs / 1e6;
    const double budget_s = budget_ticks * c.splitUs / 1e6;
    const double queue_s =
        (run.msbSteps + ticks + commands) * c.queueNsPerEvent / 1e9;
    const double sum = trace_s + physics_s + dynamo_s + budget_s + queue_s;
    report.metric("layers.trace_s_est", trace_s, "s");
    report.metric("layers.physics_s_est", physics_s, "s");
    report.metric("layers.dynamo_s_est", dynamo_s, "s");
    report.metric("layers.coord_s_est", coord_s, "s");
    report.metric("layers.budget_s_est", budget_s, "s");
    report.metric("layers.queue_s_est", queue_s, "s");
    report.metric("layers.wall_s", run.plain.wallS, "s");
    report.metric("layers.coverage",
                  ratio(sum, run.plain.wallS * run.workers), "ratio");

    const EndToEnd plain = endToEnd(run.plain);
    const EndToEnd traced = endToEnd(run.traced);
    report.metric("overhead.rack_hours_per_s_pct",
                  slowdownPct(plain.rackHoursPerS, traced.rackHoursPerS),
                  "%");
    report.metric("overhead.events_per_s_pct",
                  slowdownPct(plain.eventsPerS, traced.eventsPerS), "%");
    report.metric("overhead.event_ms_p50_pct",
                  slowdownPct(traced.eventMsP50, plain.eventMsP50), "%");
    report.metric("overhead.event_ms_p90_pct",
                  slowdownPct(traced.eventMsP90, plain.eventMsP90), "%");
    report.metric("overhead.setup_s_pct",
                  slowdownPct(run.tracedSetupS, run.plainSetupS), "%");
}

void
finishTrace()
{
    obs::setTracingEnabled(false);
    std::vector<obs::SpanEvent> spans = obs::drainSpans();
    std::fprintf(stderr, "perfbench: %zu spans recorded\n", spans.size());
}

const util::Seconds kEventAudit{600.0};

/**
 * Fewest region runs a timed pass makes, so the p90 of run latency
 * rests on more than a handful of samples even where one run takes
 * several seconds (region_day_serial).
 */
const size_t kMinRegionRuns = 6;

int
paperMain(const Args &args)
{
    PaperSweep sweep(args);
    Report report;

    if (args.mode == "setup") {
        report.metric("setup_s", sweep.setUp(), "s");
        report.print(1, 0);
        return 0;
    }

    if (args.mode == "timed") {
        double setup_s = sweep.setUp();
        EventPass pass =
            sweep.run(args.seconds, sweep.gridSize(), kUnbounded);
        reportEndToEnd(report, pass.timing, setup_s);
        int failed = sweep.check(pass, sweep.reference());
        report.print(static_cast<int>(pass.outcomes.size()), failed);
        return 0;
    }

    // Traced run.
    TracedRun run;
    sweep.setUp();
    EventPass plain = sweep.run(args.seconds / 2.0, 1, kUnbounded);
    run.plain = plain.timing;

    obs::setTracingEnabled(true);
    obs::MetricsSnapshot before = obs::snapshotMetrics();
    const size_t events = plain.outcomes.size();
    EventPass traced = sweep.run(0.0, events, events, kEventAudit);
    CounterDelta delta(std::move(before), obs::snapshotMetrics());
    run.traced = traced.timing;
    // Set-up overhead compares two warm set-ups (the first set-up
    // above also paid the process's cold start).
    trace::clearTraceCache();
    run.tracedSetupS = sweep.setUp(kEventAudit);
    obs::setTracingEnabled(false);
    trace::clearTraceCache();
    run.plainSetupS = sweep.setUp();

    const double steps = delta("core.physics_steps");
    run.msbSteps = steps;
    run.rackSteps = steps * sweep.racks();
    run.quiescentShare =
        ratio(delta("battery.shelf_quiescent_steps"), run.rackSteps);
    run.lockstepShare =
        ratio(delta("battery.shelf_lockstep_steps"), run.rackSteps);

    obs::setTracingEnabled(true);
    LayerShape shape;
    shape.traceSpec = sweep.traceSpec();
    shape.msbs = 1;
    shape.tightLimitW = 2.2e6;
    shape.msbLimitW = 2.5e6;
    LayerCosts costs = calibrateLayers(shape);
    finishTrace();

    reportLayers(report, run, delta, costs);
    std::vector<uint64_t> reference = sweep.reference();
    int failed = sweep.check(plain, reference)
        + sweep.check(traced, reference);
    report.print(
        static_cast<int>(plain.outcomes.size() + traced.outcomes.size()),
        failed);
    return 0;
}

int
regionMain(const Args &args)
{
    RegionDay region(args);
    Report report;
    const power::RegionSpec &spec = region.spec();

    if (args.mode == "setup") {
        report.metric("setup_s", region.setUp(), "s");
        report.print(1, 0);
        return 0;
    }

    if (args.mode == "timed") {
        double setup_s = region.setUp();
        region.warmUp();
        RegionPass pass =
            region.run(args.seconds, kMinRegionRuns, kUnbounded);
        reportEndToEnd(report, pass.timing, setup_s);
        int failed = checkRegionRuns(pass.outcomes, region.reference());
        report.print(static_cast<int>(pass.outcomes.size()), failed);
        return 0;
    }

    // Traced run.
    TracedRun run;
    run.workers = region.cpus();
    // The first set-up also pays the process's cold start; the
    // overhead figure compares two warm set-ups.
    region.setUp();
    region.warmUp();
    run.plainSetupS = region.setUp();
    RegionPass plain = region.run(args.seconds / 2.0, 1, kUnbounded);
    run.plain = plain.timing;

    obs::setTracingEnabled(true);
    obs::MetricsSnapshot before = obs::snapshotMetrics();
    const size_t runs = plain.outcomes.size();
    RegionPass traced = region.run(0.0, runs, runs, true);
    CounterDelta delta(std::move(before), obs::snapshotMetrics());
    run.traced = traced.timing;
    run.tracedSetupS = region.setUp(true);

    const double steps_per_msb =
        spec.duration.value() / spec.physicsStep.value();
    run.msbSteps = static_cast<double>(traced.outcomes.size())
        * spec.msbs * steps_per_msb;
    run.rackSteps = run.msbSteps * spec.racksPerMsb;
    const RegionOutcome &first = traced.outcomes.front();
    run.rechargeTickShare = ratio(static_cast<double>(first.rechargeTicks),
                                  static_cast<double>(first.ticks));

    LayerShape shape;
    shape.traceSpec.rackCount = spec.racksPerMsb;
    shape.traceSpec.step = spec.traceStep;
    shape.traceSpec.duration = spec.duration;
    shape.traceSpec.seed = spec.seed;
    shape.traceSpec.aggregateMean = spec.msbAggregateMean;
    shape.traceSpec.aggregateAmplitude = spec.msbAggregateAmplitude;
    shape.traceSpec.priorities = power::msbPriorityMix(spec);
    shape.msbs = spec.msbs;
    shape.msbLimitW = spec.msbLimit.value();
    shape.tightLimitW = 0.88 * spec.msbLimit.value();
    LayerCosts costs = calibrateLayers(shape);
    finishTrace();

    reportLayers(report, run, delta, costs);

    // Both region workloads' digests, from one process: this
    // workload's own runs and the reference on the other worker count.
    uint64_t own = plain.outcomes.front().digest;
    uint64_t reference = region.reference();
    bool serial = region.serial();
    std::fprintf(stderr,
                 "perfbench: digest region_day=%016llx "
                 "region_day_serial=%016llx (%s)\n",
                 static_cast<unsigned long long>(serial ? reference : own),
                 static_cast<unsigned long long>(serial ? own : reference),
                 own == reference ? "equal" : "DIFFERENT");
    int failed = checkRegionRuns(plain.outcomes, reference)
        + checkRegionRuns(traced.outcomes, reference);
    report.print(
        static_cast<int>(plain.outcomes.size() + traced.outcomes.size()),
        failed);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    installThrowingCheckHandler();
    std::fprintf(stderr, "perfbench: %s, mode %s, seed %llu, %.1f s%s\n",
                 toString(args.workload), args.mode.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.shortMode ? " (short)" : "");
    return isRegion(args.workload) ? regionMain(args) : paperMain(args);
}
