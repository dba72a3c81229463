#include "trace/streaming_trace_source.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/random.h"

namespace dcbatt::trace {

using power::Priority;
using util::Seconds;

namespace {

constexpr double kDayS = 24.0 * 3600.0;

/** Diurnal angle (radians) of a time or shift of @p t_s seconds. */
double
diurnalAngle(double t_s)
{
    return 2.0 * std::numbers::pi * t_s / kDayS;
}

/** Weekly modulation: weekends run flatter/lower. */
double
weeklyScale(double t_s, double weekend_dip)
{
    int day_index = static_cast<int>(t_s / kDayS) % 7;
    bool weekend = day_index >= 5;
    return weekend ? 1.0 - weekend_dip : 1.0;
}

} // namespace

StreamingTraceSource::StreamingTraceSource(StreamingTraceSpec spec)
    : spec_(std::move(spec))
{
    const TraceGenSpec &base = spec_.base;
    if (base.rackCount <= 0)
        util::fatal("StreamingTraceSource: rack count must be positive");
    if (base.step.value() <= 0.0 || base.duration < base.step)
        util::fatal("StreamingTraceSource: bad step/duration");
    if (spec_.windowSamples == 0)
        util::fatal("StreamingTraceSource: windowSamples must be >= 1");
    if (spec_.maxResidentWindows == 0)
        util::fatal(
            "StreamingTraceSource: maxResidentWindows must be >= 1");

    totalSamples_ = static_cast<size_t>(base.duration / base.step);
    windowCount_ =
        (totalSamples_ + spec_.windowSamples - 1) / spec_.windowSamples;

    // Per-rack static parameters and the initial AR(1) state, drawn
    // from substream 0 in the exact order generateTraces uses for its
    // setup loop. Kept for the source's lifetime: the fleet shape is
    // O(racks), not O(samples).
    auto racks = static_cast<size_t>(base.rackCount);
    params_.base.resize(racks);
    params_.amplitude.resize(racks);
    params_.phaseCos.resize(racks);
    params_.phaseSin.resize(racks);
    params_.innovationSigma.resize(racks);
    params_.noiseRho.resize(racks);
    std::vector<double> ar(racks);
    util::Rng rng(util::Rng::substreamSeed(base.seed, 0));
    for (size_t i = 0; i < racks; ++i) {
        Priority p = base.priorities.empty()
            ? Priority::P2
            : base.priorities[i % base.priorities.size()];
        const RackProfile &prof =
            base.profiles[power::priorityIndex(p)];
        params_.base[i] = prof.baseMean.value()
            + rng.uniform(-prof.baseSpread.value(),
                          prof.baseSpread.value());
        params_.amplitude[i] =
            prof.diurnalAmplitude * rng.uniform(0.7, 1.3);
        double phase_h =
            prof.diurnalPhaseShift + rng.uniform(-1.0, 1.0);
        double phase_angle = diurnalAngle(phase_h * 3600.0);
        params_.phaseCos[i] = std::cos(phase_angle);
        params_.phaseSin[i] = std::sin(phase_angle);
        double rho = prof.noisePersistence;
        params_.innovationSigma[i] =
            prof.noiseSigma * std::sqrt(1.0 - rho * rho);
        params_.noiseRho[i] = rho;
        ar[i] = rng.normal(0.0, prof.noiseSigma);
    }
    checkpoints_.push_back(std::move(ar));
    generated_.assign(windowCount_, 0);
}

std::unique_ptr<TraceWindow>
StreamingTraceSource::generateWindow(size_t w)
{
    const TraceGenSpec &base = spec_.base;
    const size_t first = w * spec_.windowSamples;
    const size_t count =
        std::min(spec_.windowSamples, totalSamples_ - first);
    const auto racks = static_cast<size_t>(base.rackCount);

    DCBATT_ASSERT(w < checkpoints_.size(),
                  "window %zu generated before its checkpoint", w);
    // The carry-over AR(1) state is the only cross-window coupling;
    // all noise inside the window comes from the window's own
    // substream, so (spec, w) fully determine the bytes below.
    std::vector<double> ar = checkpoints_[w];
    util::Rng rng(util::Rng::substreamSeed(base.seed, w + 1));

    auto window = std::make_unique<TraceWindow>(
        first, count, base.rackCount);
    double *data = window->mutableData();
    const double peak_s = base.peakTimeOfDay.value();
    const double lo_w = base.rackMinPower.value();
    const double hi_w = base.rackMaxPower.value();
    const double *base_w = params_.base.data();
    const double *amplitude = params_.amplitude.data();
    const double *cb = params_.phaseCos.data();
    const double *sb = params_.phaseSin.data();
    const double *sigma = params_.innovationSigma.data();
    const double *rho = params_.noiseRho.data();
    double *state = ar.data();
    for (size_t s = 0; s < count; ++s) {
        double t = base.startTime.value()
            + static_cast<double>(first + s) * base.step.value();
        double weekly = weeklyScale(t, base.weekendDip);
        // Each rack's diurnal term is cos(a - b_i) for the sample's
        // angle a and the rack's phase angle b_i; expanded as
        // cos a cos b_i + sin a sin b_i, the sample pays one cos and
        // one sin for the whole row.
        double angle = diurnalAngle(t - peak_s);
        double ca = std::cos(angle);
        double sa = std::sin(angle);
        double *row = data + s * racks;
        double raw_sum = 0.0;
        auto emit = [&](size_t i, double z) {
            state[i] = rho[i] * state[i] + z * sigma[i];
            double shape = 1.0
                + amplitude[i] * weekly * (ca * cb[i] + sa * sb[i])
                + state[i];
            double watts = std::clamp(base_w[i] * shape, lo_w, hi_w);
            row[i] = watts;
            raw_sum += watts;
        };
        // Racks 2k and 2k+1 take the two variates of one polar
        // iteration; an odd last rack takes z0 and drops z1.
        size_t i = 0;
        for (; i + 1 < racks; i += 2) {
            double z0 = 0.0, z1 = 0.0;
            rng.standardNormalPair(z0, z1);
            emit(i, z0);
            emit(i + 1, z1);
        }
        if (i < racks) {
            double z0 = 0.0, z1 = 0.0;
            rng.standardNormalPair(z0, z1);
            emit(i, z0);
        }
        // Calibrate the column so the aggregate tracks the target
        // diurnal band exactly (preserves rack-to-rack ratios).
        double target = base.aggregateMean.value()
            + base.aggregateAmplitude.value() * weekly * ca
            + rng.normal(0.0, base.aggregateMean.value()
                                  * base.aggregateNoiseFraction);
        double scale = raw_sum > 0.0 ? target / raw_sum : 1.0;
        for (size_t r = 0; r < racks; ++r)
            row[r] = std::clamp(row[r] * scale, lo_w, hi_w);
    }

    if (checkpoints_.size() == w + 1 && w + 1 < windowCount_)
        checkpoints_.push_back(std::move(ar));

    if (generated_[w]) {
        ++stats_.refetches;
        DCBATT_COUNT("trace.stream_refetches");
    }
    generated_[w] = 1;
    ++stats_.windowsGenerated;
    DCBATT_COUNT("trace.stream_windows_generated");
    return window;
}

void
StreamingTraceSource::ensureCheckpoint(size_t w)
{
    // Checkpoints grow strictly left to right: generating window k is
    // what produces checkpoint k+1. Windows generated here purely to
    // advance the AR state are dropped (they are cheap relative to
    // the simulation consuming them, and re-fetching later is the
    // common case anyway).
    while (checkpoints_.size() <= w)
        generateWindow(checkpoints_.size() - 1);
}

size_t
StreamingTraceSource::residentBytes() const
{
    size_t bytes = 0;
    for (const auto &window : resident_)
        bytes += window->memoryBytes();
    return bytes;
}

void
StreamingTraceSource::noteResidentBytes()
{
    size_t bytes = residentBytes();
    stats_.peakResidentBytes =
        std::max(stats_.peakResidentBytes, bytes);
    // Max-merged across sources and threads, so the snapshot is
    // identical at any worker count.
    static obs::Gauge &resident_gauge =
        obs::gauge("trace.stream_resident_bytes_peak");
    resident_gauge.setMax(static_cast<double>(bytes));
}

const TraceWindow &
StreamingTraceSource::windowFor(size_t sample_index)
{
    DCBATT_REQUIRE(sample_index < totalSamples_,
                   "sample %zu outside trace of %zu samples",
                   sample_index, totalSamples_);
    const size_t w = windowIndexFor(sample_index);
    for (const auto &window : resident_) {
        if (window->firstSample() == w * spec_.windowSamples)
            return *window;
    }

    ensureCheckpoint(w);
    std::unique_ptr<TraceWindow> window = generateWindow(w);
    while (resident_.size() >= spec_.maxResidentWindows) {
        resident_.erase(resident_.begin());
        ++stats_.evictions;
        DCBATT_COUNT("trace.stream_evictions");
    }
    resident_.push_back(std::move(window));
    noteResidentBytes();
    return *resident_.back();
}

TraceSet
StreamingTraceSource::materialize()
{
    TraceSet set(spec_.base.startTime, spec_.base.step,
                 spec_.base.rackCount);
    for (size_t s = 0; s < totalSamples_; ++s) {
        const TraceWindow &window = windowFor(s);
        set.appendSample(std::span<const double>(
            window.row(s), static_cast<size_t>(rackCount())));
    }
    return set;
}

} // namespace dcbatt::trace
