/**
 * @file
 * hosbench — the measuring half of the repo benchmark (run.py builds
 * and runs it). One invocation runs one workload for a host-time window
 * and prints one JSON object on its last stdout line.
 *
 *   hosbench --workload coord_graphchi --seed 1 --seconds 10 [--traced]
 *   hosbench --workload paper_sweep --seed 1 --seconds 10 --telemetry-ab
 *   hosbench --selftest
 *
 * Everything is driven through the simulator's public API and timed
 * from this file only, around the calls into each layer; nothing
 * under src/ is instrumented for the benchmark.
 *
 *  - End-to-end mode times complete runs (system build + runOne /
 *    runMany, or a whole SweepRunner::run) with no timer inside them.
 *    Set-up time comes from separate set-up-only passes. Each figure
 *    is a trimmed mean over the repetitions, which rotate over the CPUs;
 *    each repetition is first scaled to a reference host speed by a
 *    memory-latency probe timed right after it (LoadProbe).
 *  - Traced mode (meant for a HOS_PROF=host build) drives the same
 *    simulations call by call — envFor, Workload::start/step/finish —
 *    with a timer around each call, enables the span profiler, and
 *    reads the host-ns ledger to split step time by mechanism.
 *
 * Each run is checked: the VMM audit must be clean, and every
 * repetition must reproduce the first one's simulation fingerprint.
 * stderr carries "@hosbench run <i> begin|end" markers around each
 * counted run so run.py can attribute simulator warnings
 * (footprint trims) to runs.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/auditors.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "metrics/metrics.hh"
#include "policy/vmm_exclusive.hh"
#include "prof/prof.hh"
#include "sim/json.hh"
#include "vmm/drf.hh"
#include "xray/xray.hh"

#ifndef HOS_BENCH_BUILD_TYPE
#define HOS_BENCH_BUILD_TYPE "unknown"
#endif

using namespace hos;

namespace {

using Clock = std::chrono::steady_clock;

/** Host seconds since construction. */
class Stopwatch
{
  public:
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

  private:
    Clock::time_point start_ = Clock::now();
};

/**
 * Moves the calling thread to the next CPU of its starting affinity
 * set on each next(). On a shared host one CPU can run a third slower
 * than the others for tens of seconds; rotating single-threaded
 * repetitions over every CPU keeps such a stretch from setting a whole
 * run's figure (see README.md). The destructor restores the starting
 * set, so threads started afterwards (SweepRunner's workers, which
 * inherit the mask) are not confined to one CPU.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof(all_), &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }
    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(all_), &all_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** CPUs in the starting set (0 if it could not be read). */
    std::size_t size() const { return cpus_.size(); }

    void
    next()
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** Nearest-rank percentile, p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(p / 100.0 * static_cast<double>(v.size()))));
    return v[std::min(rank, v.size()) - 1];
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 50);
}

/**
 * Mean without the fastest and slowest eighth: what every end-to-end
 * host-time figure reports over a run's repetitions. Repetition times
 * on a shared host cluster around two speeds; the median jumps
 * between them, while this mean moves by a fraction of that and still
 * ignores rare stalls. It does not depend on how many repetitions fit
 * in the window, as the fastest repetition would.
 */
double
trimmedMean(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 8;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i)
        sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

/**
 * Host-speed probe: a walk of dependent loads around a random cycle
 * over 32 MiB. On a shared host the simulator slows down by up to half
 * for minutes at a time when neighbours contend for the last-level
 * cache and memory. A compute loop timed alongside does not see this;
 * the latency of these loads does (see README.md). The probe is
 * sampled right after each timed repetition, on the CPU it ran on, and
 * the repetition's host time is divided by the sample's latency over
 * refLoadNs: it then reads as host time on a host whose loads take
 * refLoadNs.
 */
class LoadProbe
{
  public:
    static constexpr double refLoadNs = 100.0;

    LoadProbe() : next_(entries)
    {
        std::vector<std::uint32_t> order(entries);
        std::iota(order.begin(), order.end(), 0u);
        std::mt19937_64 rng(0x5eed);
        std::shuffle(order.begin(), order.end(), rng);
        for (std::size_t i = 0; i < entries; ++i)
            next_[order[i]] = order[(i + 1) % entries];
    }

    /**
     * Walk the cycle once on the current CPU. Returns the sample's
     * factor: host seconds here per host second on the reference host.
     */
    double
    sample()
    {
        Stopwatch sw;
        std::uint32_t at = 0;
        for (std::size_t i = 0; i < steps; ++i)
            at = next_[at];
        sink_ = at;
        samples_.push_back(sw.seconds() * 1e9 / steps);
        return samples_.back() / refLoadNs;
    }

    /**
     * One sample on every CPU, for passes that ran on all of them;
     * returns the mean factor.
     */
    double
    sampleEachCpu()
    {
        CpuRotation cpus;
        const std::size_t n = std::max<std::size_t>(1, cpus.size());
        double sum = 0;
        for (std::size_t i = 0; i < n; ++i) {
            cpus.next();
            sum += sample();
        }
        return sum / static_cast<double>(n);
    }

    /** Median ns per load over the run. */
    double loadNs() const { return median(samples_); }

    /** The cycle's resident size, which peakRssMb() includes. */
    static double
    footprintMb()
    {
        return static_cast<double>(entries * sizeof(std::uint32_t)) /
               (1024.0 * 1024.0);
    }

  private:
    static constexpr std::size_t entries = 8u << 20; // 32 MiB of uint32
    static constexpr std::size_t steps = 3u << 19;

    std::vector<std::uint32_t> next_;
    std::vector<double> samples_;
    volatile std::uint32_t sink_ = 0;
};

/** Index of the median element (lower median for even sizes). */
template <typename T, typename Key>
std::size_t
medianIndex(const std::vector<T> &v, Key key)
{
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return key(v[a]) < key(v[b]);
    });
    return order[(order.size() - 1) / 2];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
checkLevelName()
{
    static const char *const names[] = {"off", "cheap", "full"};
    return names[check::compiledLevel];
}

const char *
xrayLevelName()
{
    static const char *const names[] = {"off", "sampled", "full"};
    return names[xray::compiledLevel];
}

// --- Correctness ----------------------------------------------------

std::uint64_t
fnv1a(const std::string &s, std::uint64_t h = 14695981039346656037ull)
{
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Stat groups that exist only while a telemetry layer is on. */
bool
isTelemetryGroup(const std::string &name)
{
    return name == "prof" || name == "xray" || name == "metrics";
}

/**
 * What every repetition of a run must reproduce exactly: the
 * simulated results plus every kernel and VMM counter.
 */
struct Fingerprint
{
    std::uint64_t sim_ns = 0;
    std::uint64_t phases = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t counters = 0; ///< FNV-1a over the simulation stats

    bool operator==(const Fingerprint &) const = default;

    std::string
    hex() const
    {
        std::string all = std::to_string(sim_ns) + ":" +
                          std::to_string(phases) + ":" +
                          std::to_string(instructions) + ":" +
                          std::to_string(llc_misses) + ":" +
                          std::to_string(counters);
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(fnv1a(all)));
        return buf;
    }
};

/** Fold a run's results into a fingerprint (counters left to caller). */
void
addResult(Fingerprint &fp, const workload::Workload::Result &r)
{
    fp.sim_ns += r.elapsed;
    fp.phases += r.phases;
    fp.instructions += r.instructions;
    fp.llc_misses += r.llc_misses;
}

/** Hash of every simulation stat (telemetry groups excluded). */
std::uint64_t
statsHash(core::HeteroSystem &sys)
{
    std::string text;
    auto &reg = sys.statRegistry();
    reg.refreshAll();
    reg.forEach([&](sim::StatGroup &g) {
        if (isTelemetryGroup(g.name()))
            return;
        g.forEachScalar([&](const std::string &stat, double v) {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "=%.17g;", v);
            text += g.name() + "." + stat + buf;
        });
    });
    return fnv1a(text);
}

// --- Per-layer counters ---------------------------------------------

/**
 * Guest-kernel counters summed over a system's VMs, by stat name
 * ("alloc.requests", ...; every "overhead_ns.<kind>" folds into
 * "overhead_ns").
 */
using LayerCounts = std::map<std::string, double>;

LayerCounts
layerCounts(core::HeteroSystem &sys)
{
    LayerCounts c;
    auto &reg = sys.statRegistry();
    reg.refreshAll();
    reg.forEach([&](sim::StatGroup &g) {
        if (isTelemetryGroup(g.name()) || g.name() == "vmm")
            return; // every other group is a guest kernel
        g.forEachScalar([&](const std::string &stat, double v) {
            c[stat.rfind("overhead_ns.", 0) == 0 ? "overhead_ns" : stat] += v;
        });
    });
    // VMM-exclusive migrates behind the guest; its engine is the only
    // migration counter outside the registry.
    for (std::size_t i = 0; i < sys.numVms(); ++i) {
        if (const auto *p = dynamic_cast<const policy::VmmExclusivePolicy *>(
                sys.slot(i).policy.get()))
            c["migration.migrated"] += static_cast<double>(p->pagesMigrated());
    }
    return c;
}

void
addCounts(LayerCounts &into, const LayerCounts &c)
{
    for (const auto &[stat, v] : c)
        into[stat] += v;
}

/** Span kinds reported per layer, by ledger name. */
const char *const reportedSpans[] = {
    "scan_pass",   "migration_epoch", "reclaim_pass", "balloon_op",
    "drf_round",   "writeback_pass",  "io_fill",
};

/**
 * Occurrences, charged sim time and host self time of one reported
 * span kind. Time in nested spans of unreported kinds (chunk_walk
 * inside scan_pass, batch_copy inside migration_epoch, ...) counts
 * toward the reported span around them, so the reported kinds split
 * all span time between them.
 */
struct SpanCost
{
    double count = 0, sim_ns = 0, host_self_ns = 0;
};

/** Per-kind span costs plus the host time of all root spans. */
struct SpanCosts
{
    std::map<std::string, SpanCost> by_kind;
    double root_host_ns = 0;
};

/** The innermost reported span kind on a ';'-joined path, or "". */
std::string
reportedKind(const std::string &path)
{
    std::string found;
    std::size_t begin = 0;
    for (;;) {
        const auto end = path.find(';', begin);
        const std::string part = path.substr(begin, end - begin);
        for (const char *kind : reportedSpans)
            if (part == kind)
                found = part;
        if (end == std::string::npos)
            return found;
        begin = end + 1;
    }
}

/**
 * Fold a ledger into per-kind costs. Span rows carry inclusive host
 * time per path; a path's self time is its time minus its children's.
 */
void
addSpanCosts(SpanCosts &out, const prof::ProfileReport &report)
{
    std::map<std::string, double> inclusive, children;
    for (const auto &e : report.entries) {
        const std::string kind = reportedKind(e.path);
        if (e.kind == "-") {
            inclusive[e.path] += static_cast<double>(e.host_ns);
            if (!kind.empty() && e.path.ends_with(kind))
                out.by_kind[kind].count += static_cast<double>(e.count);
        } else if (!kind.empty()) {
            out.by_kind[kind].sim_ns += static_cast<double>(e.sim_ns);
        }
    }
    for (const auto &[path, ns] : inclusive) {
        const auto cut = path.rfind(';');
        if (cut == std::string::npos)
            out.root_host_ns += ns;
        else
            children[path.substr(0, cut)] += ns;
    }
    for (const auto &[path, ns] : inclusive) {
        if (const std::string kind = reportedKind(path); !kind.empty())
            out.by_kind[kind].host_self_ns += ns - children[path];
    }
}

// --- Systems under test -----------------------------------------------

using Factory = workload::WorkloadFactory;

/** A built host, its VMs and the workload each VM runs. */
struct Rig
{
    std::unique_ptr<core::HeteroSystem> sys;
    std::vector<std::pair<core::HeteroSystem::VmSlot *, Factory>> vms;
    double system_build_s = 0;
    double add_vm_s = 0;
};

/** core::systemFor's assembly, with the two build steps timed. */
Rig
scenarioRig(const core::Scenario &s)
{
    Rig rig;
    Stopwatch sw;
    rig.sys = std::make_unique<core::HeteroSystem>(s.host());
    if (s.profiling)
        rig.sys->enableProfiling();
    if (s.xray)
        rig.sys->enableXray();
    if (s.metrics)
        rig.sys->enableMetrics();
    rig.system_build_s = sw.seconds();
    Stopwatch vm;
    auto &slot = rig.sys->addVm(core::makePolicy(s), s.sizing());
    rig.add_vm_s = vm.seconds();
    rig.vms.emplace_back(&slot, workload::makeApp(s.app, s.scale));
    return rig;
}

/** Round up to whole MiB, as bench_common's scaledBytes does. */
std::uint64_t
scaledBytes(std::uint64_t bytes, double scale)
{
    const auto v =
        static_cast<std::uint64_t>(static_cast<double>(bytes) * scale);
    return std::max<std::uint64_t>(mem::mib,
                                   (v + mem::mib - 1) / mem::mib * mem::mib);
}

constexpr double drfScale = 0.3;

/**
 * bench_selfperf's two_vm_drf at HOS_BENCH_SCALE=0.3: GraphChi-Twitter
 * and Metis-large overcommit the §5.1 host under weighted DRF, with
 * the host, the guest sizes and the workloads scaled alike (the
 * overcommit ratios are those of scale 1.0). The VM seeds are `seed`
 * and `seed + 6`, so seed 1 gives selfperf's 1 and 7.
 */
Rig
drfRig(std::uint64_t seed)
{
    auto bytes = [](std::uint64_t b) { return scaledBytes(b, drfScale); };
    Rig rig;
    Stopwatch sw;
    core::HostConfig host;
    host.fast = mem::dramSpec(bytes(4 * mem::gib));
    host.slow = mem::defaultSlowMemSpec(bytes(8 * mem::gib));
    rig.sys = std::make_unique<core::HeteroSystem>(host);
    rig.sys->vmm().setFairness(std::make_unique<vmm::DrfFairness>());
    rig.system_build_s = sw.seconds();

    core::GuestSizing g;
    g.name = "graphchi-vm";
    g.fast_max = bytes(4 * mem::gib);
    g.fast_initial = bytes(1 * mem::gib);
    g.slow_max = bytes(8 * mem::gib);
    g.slow_initial = bytes(4 * mem::gib);
    g.seed = seed;
    core::GuestSizing m = g;
    m.name = "metis-vm";
    m.fast_initial = bytes(3 * mem::gib);
    m.seed = seed + 6;

    Stopwatch vm;
    auto &gs = rig.sys->addVm(
        core::makePolicy(core::Approach::Coordinated), g);
    auto &ms = rig.sys->addVm(
        core::makePolicy(core::Approach::Coordinated), m);
    rig.add_vm_s = vm.seconds();
    rig.vms.emplace_back(&gs, workload::makeGraphchiTwitter(drfScale));
    rig.vms.emplace_back(&ms, workload::makeMetisLarge(drfScale));
    return rig;
}

constexpr double sweepScale = 0.3;

/** Fig. 9/10 style sweep: five apps x five approaches at scale 0.3. */
core::Sweep
paperSweep(std::uint64_t seed, bool telemetry)
{
    core::Sweep sweep(core::Scenario{}
                          .withThrottle(5.0, 9.0)
                          .withScale(sweepScale)
                          .withCapacity(scaledBytes(4 * mem::gib, sweepScale),
                                        scaledBytes(8 * mem::gib, sweepScale))
                          .withLlcBytes(16 * mem::mib)
                          .withSeed(seed)
                          .withProfiling(telemetry)
                          .withXray(telemetry)
                          .withMetrics(telemetry));
    sweep.apps({workload::AppId::GraphChi, workload::AppId::XStream,
                workload::AppId::Metis, workload::AppId::LevelDb,
                workload::AppId::Redis});
    sweep.approaches({core::Approach::SlowMemOnly,
                      core::Approach::HeapIoSlabOd,
                      core::Approach::HeteroLru,
                      core::Approach::VmmExclusive,
                      core::Approach::Coordinated});
    return sweep;
}

// --- Output -----------------------------------------------------------

/** Metric name -> value, in emission order. */
using Metrics = std::vector<std::pair<std::string, double>>;

/** One counted run (or sweep pass) and the verdict of its checks. */
struct RunRow
{
    double wall_s = 0;
    double probe = 0; ///< LoadProbe factor right after; 0 if not probed
    std::string fingerprint;
    std::uint64_t attempted = 1;
    std::uint64_t failed = 0;
    std::string failure;
};

struct Report
{
    std::string workload;
    std::string mode;
    double scale = 1.0;
    std::uint64_t seed = 1;
    unsigned workers = 1;
    std::vector<RunRow> runs;
    Metrics metrics;
    /** The host-speed probe, and host times before scaling by it. */
    Metrics host;
    /** Cross-build fingerprint: what the other build must reproduce. */
    std::string fingerprint;
};

void
emitReport(const Report &r)
{
    std::ostringstream os;
    sim::JsonWriter w(os);
    w.beginObject();
    w.key("stamp");
    w.beginObject();
    w.kv("workload", r.workload);
    w.kv("build_type", HOS_BENCH_BUILD_TYPE);
    w.kv("hos_check", checkLevelName());
    w.kv("hos_prof", prof::levelName());
    w.kv("hos_xray", xrayLevelName());
    w.kv("hos_metrics", metrics::metricsCompiled ? "on" : "off");
    w.kv("scale", r.scale);
    w.kv("seed", r.seed);
    w.kv("workers", static_cast<std::uint64_t>(r.workers));
    w.kv("nproc", static_cast<std::uint64_t>(
                      std::max(1u, std::thread::hardware_concurrency())));
    w.endObject();
    w.kv("mode", r.mode);
    w.kv("fingerprint", r.fingerprint);
    w.key("runs");
    w.beginArray();
    for (const auto &run : r.runs) {
        w.beginObject();
        w.kv("wall_s", run.wall_s);
        w.kv("probe", run.probe);
        w.kv("fingerprint", run.fingerprint);
        w.kv("attempted", run.attempted);
        w.kv("failed", run.failed);
        w.kv("failure", run.failure);
        w.endObject();
    }
    w.endArray();
    w.key("metrics");
    w.beginObject();
    for (const auto &[name, value] : r.metrics)
        w.kv(name, value);
    w.endObject();
    w.key("host");
    w.beginObject();
    for (const auto &[name, value] : r.host)
        w.kv(name, value);
    w.endObject();
    w.endObject();
    std::cout << os.str() << std::endl;
}

/** Brackets one counted run on stderr for run.py's trim count. */
class RunMarker
{
  public:
    explicit RunMarker(std::size_t index) : index_(index)
    {
        std::fprintf(stderr, "@hosbench run %zu begin\n", index_);
    }
    ~RunMarker() { std::fprintf(stderr, "@hosbench run %zu end\n", index_); }

    RunMarker(const RunMarker &) = delete;
    RunMarker &operator=(const RunMarker &) = delete;

  private:
    std::size_t index_;
};

// --- Single- and two-VM workloads ---------------------------------------

/** Set-up-only pass: build the rig and start every workload. */
struct SetupTimes
{
    double system_build_s = 0, add_vm_s = 0, start_s = 0;
    double total() const { return system_build_s + add_vm_s + start_s; }
};

SetupTimes
setupPass(const std::function<Rig()> &build)
{
    Stopwatch sw;
    Rig rig = build();
    Stopwatch start;
    std::vector<std::unique_ptr<workload::Workload>> wls;
    for (auto &[slot, factory] : rig.vms) {
        wls.push_back(factory(rig.sys->envFor(*slot)));
        wls.back()->start();
    }
    return {rig.system_build_s, rig.add_vm_s, start.seconds()};
}

/** Audit failures of a finished system, as one line ("" when clean). */
std::string
auditFailure(core::HeteroSystem &sys, bool profiled)
{
    auto audit = check::auditVmm(sys.vmm(), &sys.statRegistry());
    if (profiled)
        audit.merge(check::auditProf(sys.profiler()));
    if (audit.ok())
        return "";
    return "audit: " + audit.failures.front().describe();
}

/**
 * Check a run against the reference (first) repetition and record
 * the verdict in `row`.
 */
void
judge(RunRow &row, const Fingerprint &fp, const Fingerprint &reference,
      const std::string &audit)
{
    row.fingerprint = fp.hex();
    if (!audit.empty()) {
        row.failed = 1;
        row.failure = audit;
    } else if (!(fp == reference)) {
        row.failed = 1;
        row.failure = "fingerprint " + fp.hex() + " != reference " +
                      reference.hex();
    }
}

/** Set-up-only passes per run: two per CPU on a 4-CPU host. */
constexpr int setupPasses = 8;

/** Host times of one kind, as measured and scaled by the probe. */
struct HostTimes
{
    std::vector<double> raw, scaled;

    void
    add(double seconds, double factor)
    {
        raw.push_back(seconds);
        scaled.push_back(seconds / factor);
    }
};

/** The probe's median reading, and host times as measured. */
Metrics
hostSection(const LoadProbe &probe, const Metrics &measured)
{
    Metrics host = {{"load_ns", probe.loadNs()}};
    for (const auto &[name, value] : measured)
        host.push_back({"measured." + name, value});
    return host;
}

Report
runSystemE2e(const std::function<Rig()> &build, double seconds)
{
    Report rep;
    LoadProbe probe;
    CpuRotation cpus;
    HostTimes setup, start;
    for (int i = 0; i < setupPasses; ++i) {
        cpus.next();
        const SetupTimes t = setupPass(build);
        const double f = probe.sample();
        setup.add(t.total(), f);
        start.add(t.start_s, f);
    }
    const double start_raw = median(start.raw);
    const double start_scaled = median(start.scaled);

    HostTimes run, simulate;
    Fingerprint reference;
    Stopwatch window;
    do {
        cpus.next();
        RunMarker marker(rep.runs.size());
        Stopwatch sw;
        Rig rig = build();
        const double build_s = sw.seconds();
        std::vector<workload::Workload::Result> results;
        if (rig.vms.size() == 1)
            results.push_back(
                rig.sys->runOne(*rig.vms[0].first, rig.vms[0].second));
        else
            results = rig.sys->runMany(rig.vms);
        const double wall = sw.seconds();

        Fingerprint fp;
        for (const auto &r : results)
            addResult(fp, r);
        fp.counters = statsHash(*rig.sys);
        if (rep.runs.empty())
            reference = fp;
        RunRow row;
        row.wall_s = wall;
        judge(row, fp, reference, auditFailure(*rig.sys, false));
        row.probe = probe.sample(); // same CPU as the repetition
        rep.runs.push_back(row);

        run.add(wall, row.probe);
        // runOne/runMany include each workload's start; take the
        // set-up passes' median start time back out.
        simulate.raw.push_back(wall - build_s - start_raw);
        simulate.scaled.push_back((wall - build_s) / row.probe -
                                  start_scaled);
    } while (window.seconds() < seconds);

    // A rate over the mean time, not a mean of per-repetition rates.
    const auto sim_ns = static_cast<double>(reference.sim_ns);
    rep.fingerprint = reference.hex();
    rep.metrics = {
        {"sim_ns_per_host_s", sim_ns / trimmedMean(simulate.scaled)},
        {"run_s", trimmedMean(run.scaled)},
        {"setup_s", trimmedMean(setup.scaled)},
        {"peak_rss_mb", peakRssMb() - LoadProbe::footprintMb()},
        {"sim_s", sim::toSeconds(reference.sim_ns)},
    };
    rep.host = hostSection(
        probe, {{"sim_ns_per_host_s", sim_ns / trimmedMean(simulate.raw)},
                {"run_s", trimmedMean(run.raw)},
                {"setup_s", trimmedMean(setup.raw)}});
    return rep;
}

/** Host time of every Workload call one traced run made. */
struct StepTimes
{
    double start_s = 0;
    std::vector<double> steps_s;
};

/**
 * Run a rig call by call, as runOne/runMany do (lockstep: always
 * step the VM with the smallest simulated clock; devices see the
 * number of still-active VMs as sharers), timing each call. The
 * system's telemetry scopes are installed as runOne installs them.
 */
std::vector<workload::Workload::Result>
steppedRun(Rig &rig, StepTimes &times)
{
    core::HeteroSystem &sys = *rig.sys;
    prof::ScopedProfiler prof_guard(
        sys.profilingEnabled() ? &sys.profiler() : nullptr);
    xray::ScopedRecorder xray_guard(
        sys.xrayEnabled() ? &sys.xrayRecorder() : nullptr);
    metrics::ScopedCollector metrics_guard(
        sys.metricsEnabled() ? &sys.metricsCollector() : nullptr);

    unsigned active = 1;
    std::vector<std::unique_ptr<workload::Workload>> wls;
    Stopwatch start;
    for (auto &[slot, factory] : rig.vms) {
        workload::VmEnv env = sys.envFor(*slot);
        env.sharers = [&active] { return active; };
        wls.push_back(factory(std::move(env)));
        wls.back()->start();
    }
    times.start_s += start.seconds();

    for (;;) {
        workload::Workload *next = nullptr;
        unsigned running = 0;
        for (auto &wl : wls) {
            if (wl->done())
                continue;
            ++running;
            if (!next || wl->elapsed() < next->elapsed())
                next = wl.get();
        }
        if (!next)
            break;
        active = running;
        Stopwatch step;
        next->step();
        times.steps_s.push_back(step.seconds());
    }
    active = 1;

    std::vector<workload::Workload::Result> results;
    for (auto &wl : wls)
        results.push_back(wl->finish());
    return results;
}

/** Host times of one traced run, or of the paper_sweep point pass. */
struct LayerTimes
{
    double run_s = 0, system_build_s = 0, add_vm_s = 0, audit_s = 0;
    StepTimes steps;
    SpanCosts spans;
};

/** Simulated outcome of the same run: counts, which repeat exactly. */
struct LayerWork
{
    std::uint64_t phases = 0, instructions = 0, llc_misses = 0;
    LayerCounts counts;
};

void
layerMetrics(Metrics &m, const LayerTimes &t, const LayerWork &w)
{
    double step_s = 0;
    for (const double s : t.steps.steps_s)
        step_s += s;
    auto count = [&](const char *stat) {
        const auto it = w.counts.find(stat);
        return it == w.counts.end() ? 0.0 : it->second;
    };
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double migrated = count("migration.migrated");
    const double hits = count("cache.hits");
    m.insert(m.end(), {
        {"core.system_build_s", t.system_build_s},
        {"core.add_vm_s", t.add_vm_s},
        {"workload.start_s", t.steps.start_s},
        {"workload.step_ms_p50", percentile(t.steps.steps_s, 50) * 1e3},
        {"workload.step_ms_p90", percentile(t.steps.steps_s, 90) * 1e3},
        {"workload.step_s", step_s},
        {"workload.phases", static_cast<double>(w.phases)},
        {"mem.llc_misses", static_cast<double>(w.llc_misses)},
        {"mem.mpki", ratio(static_cast<double>(w.llc_misses),
                           static_cast<double>(w.instructions) / 1000.0)},
        {"guestos.alloc_requests", count("alloc.requests")},
        {"guestos.alloc_fast_miss_ratio",
         ratio(count("alloc.fast_misses"), count("alloc.requests"))},
        {"guestos.lru_reclaim_passes", count("lru.reclaim_passes")},
        {"guestos.lru_pages_scanned", count("lru.pages_scanned")},
        {"guestos.lru_demoted",
         count("lru.demoted_anon") + count("lru.demoted_cache")},
        {"guestos.page_cache_hit_ratio",
         ratio(hits, hits + count("cache.misses"))},
        {"guestos.swap_out", count("swap.out")},
        {"guestos.overhead_ms", count("overhead_ns") / 1e6},
        {"vmm.migrated", migrated},
        {"vmm.migration_useful_ratio",
         ratio(migrated, migrated + count("migration.skipped"))},
        {"vmm.balloon_requested", count("balloon.requested")},
        {"vmm.balloon_grant_ratio",
         ratio(count("balloon.granted"), count("balloon.requested"))},
        {"check.audit_s", t.audit_s},
    });
    for (const char *kind : reportedSpans) {
        const auto it = t.spans.by_kind.find(kind);
        const SpanCost cost =
            it == t.spans.by_kind.end() ? SpanCost{} : it->second;
        const std::string p = std::string("prof.") + kind;
        m.push_back({p + ".count", cost.count});
        m.push_back({p + ".sim_ms", cost.sim_ns / 1e6});
        m.push_back({p + ".host_ms", cost.host_self_ns / 1e6});
    }
    // Root spans' inclusive time is all span self time; the rest of
    // the step time is in code no span covers.
    m.push_back({"prof.unattributed_host_ms",
                 std::max(0.0, step_s * 1e3 - t.spans.root_host_ns / 1e6)});
}

Report
runSystemTraced(const std::function<Rig()> &build, double seconds)
{
    Report rep;
    LoadProbe probe;
    CpuRotation cpus;
    std::vector<LayerTimes> runs;
    HostTimes run;
    Fingerprint reference;
    LayerWork work;
    Stopwatch window;
    do {
        cpus.next();
        RunMarker marker(rep.runs.size());
        LayerTimes t;
        Stopwatch sw;
        Rig rig = build();
        rig.sys->enableProfiling();
        const auto results = steppedRun(rig, t.steps);
        t.run_s = sw.seconds();
        t.system_build_s = rig.system_build_s;
        t.add_vm_s = rig.add_vm_s;
        Stopwatch audit_sw;
        const std::string audit = auditFailure(*rig.sys, true);
        t.audit_s = audit_sw.seconds();
        addSpanCosts(t.spans, rig.sys->profiler().report());

        Fingerprint fp;
        for (const auto &r : results)
            addResult(fp, r);
        fp.counters = statsHash(*rig.sys);
        if (rep.runs.empty()) {
            reference = fp;
            work = {fp.phases, fp.instructions, fp.llc_misses,
                    layerCounts(*rig.sys)};
        }
        RunRow row;
        row.wall_s = t.run_s;
        judge(row, fp, reference, audit);
        row.probe = probe.sample();
        rep.runs.push_back(row);
        runs.push_back(std::move(t));
        run.add(row.wall_s, row.probe);
    } while (window.seconds() < seconds);

    // Host figures all come from the median run, so they add up
    // within one run.
    const LayerTimes &mid = runs[medianIndex(
        runs, [](const LayerTimes &t) { return t.run_s; })];

    rep.fingerprint = reference.hex();
    // run_s is scaled like the end-to-end run's, for trace.overhead_frac;
    // the layer times are as measured.
    rep.metrics = {{"run_s", trimmedMean(run.scaled)}};
    rep.host = hostSection(probe, {{"run_s", trimmedMean(run.raw)}});
    layerMetrics(rep.metrics, mid, work);
    for (const char *name : {"core.sweep_speedup", "core.sweep_point_s_p50",
                             "core.sweep_point_s_p90",
                             "core.results_write_s",
                             "telemetry.overhead_frac",
                             "telemetry.results_mb"})
        rep.metrics.push_back({name, 0.0}); // paper_sweep only
    return rep;
}

// --- paper_sweep ----------------------------------------------------------

/** One SweepRunner pass plus its rendered aggregate results JSON. */
struct SweepPass
{
    double run_s = 0;   ///< SweepRunner::run
    double write_s = 0; ///< writeSweepResultsJson to memory
    std::vector<core::SweepResult> results;
    std::string json;
    std::vector<double> point_s; ///< per-point host time
};

SweepPass
sweepPass(const core::Sweep &sweep, unsigned workers)
{
    SweepPass pass;
    core::SweepRunner runner(sweep);
    // Per-point time is the gap between a worker's completions (the
    // callback runs on the worker thread that finished the point).
    std::map<std::thread::id, Clock::time_point> last;
    const Clock::time_point begin = Clock::now();
    runner.onPointDone([&](const core::SweepResult &) {
        const auto now = Clock::now();
        const auto it =
            last.try_emplace(std::this_thread::get_id(), begin).first;
        pass.point_s.push_back(
            std::chrono::duration<double>(now - it->second).count());
        it->second = now;
    });
    Stopwatch sw;
    pass.results = runner.run(workers);
    pass.run_s = sw.seconds();
    Stopwatch write;
    std::ostringstream os;
    core::writeSweepResultsJson(os, sweep, pass.results);
    pass.json = os.str();
    pass.write_s = write.seconds();
    return pass;
}

/** A record as JSON text, optionally without its telemetry reports. */
std::string
recordText(core::RunRecord record, bool strip_telemetry)
{
    if (strip_telemetry) {
        record.profile = {};
        record.xray = {};
        record.metrics = {};
    }
    std::ostringstream os;
    sim::JsonWriter w(os);
    core::writeRunRecord(w, record);
    return os.str();
}

/** Simulated results of a pass, independent of telemetry and build. */
Fingerprint
sweepFingerprint(const SweepPass &pass)
{
    Fingerprint fp;
    std::string text;
    for (const auto &r : pass.results) {
        fp.sim_ns += static_cast<std::uint64_t>(r.record.runtime_s * 1e9);
        fp.phases += r.record.phases;
        fp.instructions += r.record.instructions;
        fp.llc_misses += r.record.llc_misses;
        text += recordText(r.record, true);
    }
    fp.counters = fnv1a(text);
    return fp;
}

/**
 * Compare a pass point by point with a reference pass; each point
 * that differs is one failure. `exact` compares whole records
 * (same telemetry settings), otherwise telemetry is stripped first.
 */
void
judgeSweep(RunRow &row, const SweepPass &pass, const SweepPass &reference,
           bool exact, const char *what)
{
    row.wall_s = pass.run_s + pass.write_s;
    row.attempted = pass.results.size();
    row.fingerprint = sweepFingerprint(pass).hex();
    if (pass.results.size() != reference.results.size()) {
        row.failed = row.attempted;
        row.failure = std::string(what) + ": point count differs";
        return;
    }
    for (std::size_t i = 0; i < pass.results.size(); ++i) {
        if (recordText(pass.results[i].record, !exact) !=
            recordText(reference.results[i].record, !exact)) {
            if (row.failed++ == 0)
                row.failure = std::string(what) + ": point " +
                              std::to_string(i) + " differs";
        }
    }
    if (exact && row.failed == 0 && pass.json != reference.json) {
        row.failed = 1;
        row.failure = std::string(what) + ": aggregate JSON differs";
    }
}

double
sweepSimSeconds(const SweepPass &pass)
{
    double s = 0;
    for (const auto &r : pass.results)
        s += r.record.runtime_s;
    return s;
}

/**
 * `ab` adds the telemetry A/B of the traced run's layer split: a
 * telemetry-off twin after every telemetry-on pass instead of one twin
 * at the end.
 */
Report
runSweepE2e(std::uint64_t seed, unsigned workers, double seconds, bool ab)
{
    Report rep;
    LoadProbe probe;
    // Set-up is building the sweep and its runner, expanding the
    // points, and building and starting every point's system — the
    // runner does the last two inside its workers, once per point.
    HostTimes setup;
    {
        CpuRotation cpus; // released before the runner starts workers
        for (int i = 0; i < setupPasses; ++i) {
            cpus.next();
            Stopwatch sw;
            const core::Sweep sweep = paperSweep(seed, true);
            core::SweepRunner runner(sweep);
            const auto points = runner.sweep().points();
            for (const auto &point : points)
                setupPass([&] { return scenarioRig(point.scenario); });
            setup.add(sw.seconds(), probe.sample());
        }
    }

    // Telemetry-on passes are what the end-to-end figures time. Every
    // telemetry-off twin of the same points must simulate what the
    // telemetry-on reference did; with `ab` the interleaved pairs also
    // give the telemetry overhead within one process.
    SweepPass reference;
    HostTimes run, simulate;
    std::vector<double> write_s, point_s, on_s, off_s;
    auto counted = [&](bool telemetry, unsigned n, const char *what) {
        SweepPass pass;
        {
            RunMarker marker(rep.runs.size());
            pass = sweepPass(paperSweep(seed, telemetry), n);
        }
        if (rep.runs.empty())
            reference = pass;
        RunRow row;
        judgeSweep(row, pass, reference, telemetry, what);
        rep.runs.push_back(row);
        return pass;
    };
    Stopwatch window;
    do {
        const SweepPass pass = counted(true, workers, "repetition");
        const double f = probe.sampleEachCpu(); // the workers ran on all
        rep.runs.back().probe = f;
        run.add(pass.run_s + pass.write_s, f);
        simulate.add(pass.run_s, f);
        on_s.push_back(pass.run_s);
        write_s.push_back(pass.write_s);
        point_s.insert(point_s.end(), pass.point_s.begin(),
                       pass.point_s.end());
        if (ab)
            off_s.push_back(
                counted(false, workers, "telemetry-off twin").run_s);
    } while (window.seconds() < seconds);
    if (!ab)
        counted(false, workers, "telemetry-off twin");

    // A 1-worker pass must match the N-worker aggregate JSON byte for
    // byte; its time gives the pool's speedup.
    const SweepPass serial = counted(true, 1, "1-worker vs N-worker");

    const double sim_ns = sweepSimSeconds(reference) * 1e9;
    rep.fingerprint = sweepFingerprint(reference).hex();
    rep.metrics = {
        {"sim_ns_per_host_s", sim_ns / trimmedMean(simulate.scaled)},
        {"run_s", trimmedMean(run.scaled)},
        {"setup_s", trimmedMean(setup.scaled)},
        {"peak_rss_mb", peakRssMb() - LoadProbe::footprintMb()},
        {"sim_s", sweepSimSeconds(reference)},
        // Per-layer figures of the pool, taken here in the end-to-end
        // build; run.py adds them to the traced run's layer split.
        {"core.sweep_speedup", serial.run_s / median(on_s)},
        {"core.sweep_point_s_p50", percentile(point_s, 50)},
        {"core.sweep_point_s_p90", percentile(point_s, 90)},
        {"core.results_write_s", median(write_s)},
        {"telemetry.results_mb",
         static_cast<double>(reference.json.size()) / (1024.0 * 1024.0)},
    };
    if (ab)
        rep.metrics.push_back(
            {"telemetry.overhead_frac", median(on_s) / median(off_s) - 1.0});
    rep.host = hostSection(
        probe, {{"sim_ns_per_host_s", sim_ns / trimmedMean(simulate.raw)},
                {"run_s", trimmedMean(run.raw)},
                {"setup_s", trimmedMean(setup.raw)}});
    return rep;
}

Report
runSweepTraced(std::uint64_t seed, unsigned workers, double seconds)
{
    Report rep;
    // The end-to-end run's telemetry-on passes again, in this build,
    // for trace.overhead_frac.
    LoadProbe probe;
    SweepPass reference;
    HostTimes run;
    Stopwatch window;
    do {
        SweepPass pass;
        {
            RunMarker marker(rep.runs.size());
            pass = sweepPass(paperSweep(seed, true), workers);
        }
        if (rep.runs.empty())
            reference = pass;
        RunRow row;
        judgeSweep(row, pass, reference, true, "repetition");
        row.probe = probe.sampleEachCpu();
        rep.runs.push_back(row);
        run.add(row.wall_s, row.probe);
    } while (window.seconds() < seconds);

    // Every point again, serially and call by call, for the layer
    // split. Each must reproduce the runner's simulated results.
    // Build, start, step and audit times are totals over the points.
    LayerTimes t;
    LayerWork work;
    const auto points = paperSweep(seed, true).points();
    RunRow manual;
    manual.attempted = points.size();
    manual.fingerprint = "-"; // checked point by point below
    {
        RunMarker marker(rep.runs.size());
        Stopwatch sw;
        for (const auto &point : points) {
            Rig rig = scenarioRig(point.scenario);
            const auto results = steppedRun(rig, t.steps);
            Stopwatch audit_sw;
            std::string failure = auditFailure(*rig.sys, true);
            t.audit_s += audit_sw.seconds();
            t.system_build_s += rig.system_build_s;
            t.add_vm_s += rig.add_vm_s;

            const core::RunRecord &ref =
                reference.results[point.index].record;
            const auto &r = results.front();
            if (failure.empty() &&
                (r.phases != ref.phases ||
                 r.instructions != ref.instructions ||
                 r.llc_misses != ref.llc_misses ||
                 r.seconds() != ref.runtime_s))
                failure = "stepped point " + std::to_string(point.index) +
                          " differs from the runner's";
            if (!failure.empty() && manual.failed++ == 0)
                manual.failure = failure;

            work.phases += r.phases;
            work.instructions += r.instructions;
            work.llc_misses += r.llc_misses;
            addCounts(work.counts, layerCounts(*rig.sys));
            addSpanCosts(t.spans, rig.sys->profiler().report());
        }
        manual.wall_s = sw.seconds();
    }
    rep.runs.push_back(manual);

    rep.fingerprint = sweepFingerprint(reference).hex();
    rep.metrics = {{"run_s", trimmedMean(run.scaled)}};
    rep.host = hostSection(probe, {{"run_s", trimmedMean(run.raw)}});
    layerMetrics(rep.metrics, t, work);
    return rep;
}

// --- Self-test ------------------------------------------------------------

/**
 * The repetition check must catch a changed simulation: run a small
 * scenario twice, perturb the second fingerprint, and require exactly
 * that repetition to be counted as failed.
 */
int
selfTest()
{
    const core::Scenario s = core::Scenario{}
                                 .withApproach(core::Approach::Coordinated)
                                 .withScale(0.05)
                                 .withCapacity(256 * mem::mib, 512 * mem::mib);
    std::vector<Fingerprint> fps;
    for (int i = 0; i < 2; ++i) {
        Rig rig = scenarioRig(s);
        Fingerprint fp;
        addResult(fp, rig.sys->runOne(*rig.vms[0].first, rig.vms[0].second));
        fp.counters = statsHash(*rig.sys);
        fps.push_back(fp);
    }
    RunRow same, mismatched;
    judge(same, fps[1], fps[0], "");
    Fingerprint perturbed = fps[1];
    perturbed.llc_misses += 1;
    judge(mismatched, perturbed, fps[0], "");
    std::printf("selftest: identical repetitions %s; mismatched "
                "fingerprint %s\n",
                same.failed == 0 ? "pass" : "FAIL",
                mismatched.failed == 1 ? "counted as a failure"
                                       : "NOT counted");
    return same.failed == 0 && mismatched.failed == 1 ? 0 : 1;
}

const char *const workloadNames[] = {"coord_graphchi", "vmm_sweep_graphchi",
                                     "drf_two_vm", "paper_sweep"};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hosbench: %s\nusage: hosbench --workload NAME --seed N "
                 "--seconds S [--traced | --telemetry-ab] | --selftest\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string name;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool traced = false;
    bool ab = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--selftest")
            return selfTest();
        if (arg == "--workload")
            name = next();
        else if (arg == "--seed")
            seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::atof(next().c_str());
        else if (arg == "--traced")
            traced = true;
        else if (arg == "--telemetry-ab")
            ab = true;
        else
            usage(("unknown argument " + arg).c_str());
    }
    if (std::find(std::begin(workloadNames), std::end(workloadNames), name) ==
        std::end(workloadNames))
        usage(("unknown workload '" + name + "'").c_str());
    if (!(seconds > 0))
        usage("--seconds must be positive");

    const unsigned workers =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

    Report rep;
    double scale = 1.0;
    if (name == "paper_sweep") {
        rep = traced ? runSweepTraced(seed, workers, seconds)
                     : runSweepE2e(seed, workers, seconds, ab);
        scale = sweepScale;
        rep.workers = workers;
    } else {
        std::function<Rig()> build;
        if (name == "drf_two_vm") {
            build = [seed] { return drfRig(seed); };
            scale = drfScale;
        } else {
            const auto approach = name == "coord_graphchi"
                                      ? core::Approach::Coordinated
                                      : core::Approach::VmmExclusive;
            const core::Scenario s = core::Scenario{}
                                         .withApp(workload::AppId::GraphChi)
                                         .withApproach(approach)
                                         .withScale(1.0)
                                         .withSeed(seed);
            build = [s] { return scenarioRig(s); };
        }
        rep = traced ? runSystemTraced(build, seconds)
                     : runSystemE2e(build, seconds);
    }
    rep.workload = name;
    rep.scale = scale;
    rep.mode = traced ? "traced" : "e2e";
    rep.seed = seed;
    emitReport(rep);
    return 0;
}
