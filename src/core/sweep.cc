#include "core/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

#include "core/experiment.hh"
#include "sim/log.hh"
#include "sim/rng.hh"

namespace hos::core {

namespace {

/**
 * Render an axis value. Unlike jsonNumber's %.12g, integral values
 * print as exact integers — byte-size axes routinely exceed 12
 * digits (1 TiB = 1099511627776) and must survive the text
 * round-trip through applyScenarioParam.
 */
std::string
axisNumber(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v))) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        return buf;
    }
    return sim::jsonNumber(v);
}

bool
looksNumeric(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end && *end == '\0';
}

} // namespace

Sweep &
Sweep::axis(const std::string &key, std::vector<std::string> values)
{
    hos_assert(!values.empty(), "axis '%s' needs values", key.c_str());
    axes_.push_back({key, std::move(values)});
    return *this;
}

Sweep &
Sweep::axis(const std::string &key, const std::vector<double> &values)
{
    std::vector<std::string> texts;
    texts.reserve(values.size());
    for (double v : values)
        texts.push_back(axisNumber(v));
    return axis(key, std::move(texts));
}

Sweep &
Sweep::approaches(const std::vector<Approach> &as)
{
    std::vector<std::string> keys;
    keys.reserve(as.size());
    for (Approach a : as)
        keys.push_back(approachKey(a));
    return axis("approach", std::move(keys));
}

Sweep &
Sweep::apps(const std::vector<workload::AppId> &ids)
{
    std::vector<std::string> keys;
    keys.reserve(ids.size());
    for (workload::AppId id : ids)
        keys.push_back(appKey(id));
    return axis("app", std::move(keys));
}

Sweep &
Sweep::replicas(unsigned n)
{
    hos_assert(n > 0, "replicas needs a positive count");
    std::vector<std::string> seeds;
    seeds.reserve(n);
    for (unsigned r = 0; r < n; ++r)
        seeds.push_back(std::to_string(sim::deriveSeed(base_.seed, r)));
    return axis("seed", std::move(seeds));
}

std::size_t
Sweep::numPoints() const
{
    std::size_t n = 1;
    for (const auto &a : axes_)
        n *= a.values.size();
    return n;
}

std::vector<SweepPoint>
Sweep::points(std::string *error) const
{
    const std::size_t total = numPoints();
    std::vector<SweepPoint> out;
    out.reserve(total);

    for (std::size_t index = 0; index < total; ++index) {
        SweepPoint p;
        p.index = index;
        p.scenario = base_;

        // Row-major: the first axis varies slowest.
        std::size_t stride = total;
        for (const auto &a : axes_) {
            stride /= a.values.size();
            const std::string &value =
                a.values[(index / stride) % a.values.size()];
            std::string perr;
            if (!applyScenarioParam(p.scenario, a.key, value, &perr)) {
                if (error)
                    *error = "axis '" + a.key + "': " + perr;
                return {};
            }
            p.params.emplace_back(a.key, value);
        }
        out.push_back(std::move(p));
    }
    return out;
}

void
sweepToJson(sim::JsonWriter &w, const Sweep &sweep)
{
    w.beginObject();
    w.key("base");
    scenarioToJson(w, sweep.base());
    w.key("axes");
    w.beginObject();
    for (const auto &a : sweep.axes()) {
        w.key(a.key);
        w.beginArray();
        for (const auto &v : a.values)
            w.value(v);
        w.endArray();
    }
    w.endObject();
    w.endObject();
}

std::optional<Sweep>
sweepFromJson(const sim::JsonValue &v, std::string *error)
{
    if (!v.isObject()) {
        if (error)
            *error = "sweep must be a JSON object";
        return std::nullopt;
    }

    Scenario base;
    if (const auto *b = v.find("base")) {
        auto parsed = scenarioFromJson(*b, error);
        if (!parsed)
            return std::nullopt;
        base = *parsed;
    }

    Sweep sweep(base);
    if (const auto *axes = v.find("axes")) {
        if (!axes->isObject()) {
            if (error)
                *error = "axes must be an object of arrays";
            return std::nullopt;
        }
        for (const auto &[key, vals] : axes->object) {
            if (!vals.isArray() || vals.array.empty()) {
                if (error)
                    *error = "axis '" + key +
                             "' must be a non-empty array";
                return std::nullopt;
            }
            std::vector<std::string> texts;
            texts.reserve(vals.array.size());
            for (const auto &e : vals.array)
                texts.push_back(e.scalarText());
            sweep.axis(key, std::move(texts));
        }
    }

    // Validate every point up front so a bad file fails at load time,
    // not mid-run on some worker thread.
    std::string perr;
    if (sweep.points(&perr).empty() && sweep.numPoints() > 0) {
        if (error)
            *error = perr;
        return std::nullopt;
    }
    return sweep;
}

std::optional<Sweep>
loadSweep(const std::string &path, std::string *error)
{
    const auto doc = sim::jsonParseFile(path, error);
    if (!doc)
        return std::nullopt;
    return sweepFromJson(*doc, error);
}

namespace {

/** Run one expanded point; self-contained, safe on any thread. */
SweepResult
executePoint(const SweepPoint &point)
{
    SweepResult r;
    r.point = point;

    // Keep the system alive past the run so its span ledger,
    // placement shadow, and metrics series can be harvested into the
    // record.
    const Scenario &s = point.scenario;
    auto sys = systemFor(s);
    const auto result =
        sys->runOne(sys->slot(0), workload::makeApp(s.app, s.scale));
    r.record = makeRunRecord(result, approachName(s.approach));
    if (s.profiling)
        r.record.profile = sys->profiler().report();
    if (s.xray)
        r.record.xray = sys->xrayRecorder().report();
    if (s.metrics)
        r.record.metrics = sys->metricsCollector().report();

    // Numeric axis values ride along as extras so plots can read the
    // coordinates straight out of the record.
    for (const auto &[key, value] : point.params) {
        double num = 0.0;
        if (looksNumeric(value, num))
            r.record.extra.emplace_back("param." + key, num);
    }
    return r;
}

} // namespace

std::vector<SweepResult>
SweepRunner::run(unsigned jobs)
{
    std::string error;
    const auto pts = sweep_.points(&error);
    if (pts.empty()) {
        if (!error.empty())
            sim::warn("sweep expansion failed: %s", error.c_str());
        return {};
    }

    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    jobs = static_cast<unsigned>(
        std::min<std::size_t>(jobs, pts.size()));

    std::vector<SweepResult> results(pts.size());

    std::atomic<std::size_t> next{0};
    std::mutex done_mutex;
    const auto worker = [&] {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= pts.size())
                return;
            results[i] = executePoint(pts[i]);
            if (on_done_) {
                std::lock_guard<std::mutex> lock(done_mutex);
                on_done_(results[i]);
            }
        }
    };

    if (jobs <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned t = 0; t < jobs; ++t)
            pool.emplace_back(worker);
        for (auto &t : pool)
            t.join();
    }
    return results;
}

void
writeSweepResultsJson(std::ostream &os, const Sweep &sweep,
                      const std::vector<SweepResult> &results)
{
    sim::JsonWriter w(os);
    w.beginObject();
    w.kv("schema", "hos-sweep-results-1");
    w.key("sweep");
    sweepToJson(w, sweep);
    w.kv("num_points", static_cast<std::uint64_t>(results.size()));
    w.key("runs");
    w.beginArray();
    for (const auto &r : results) {
        w.beginObject();
        w.kv("point", static_cast<std::uint64_t>(r.point.index));
        w.key("params");
        w.beginObject();
        for (const auto &[key, value] : r.point.params)
            w.kv(key, value);
        w.endObject();
        w.key("record");
        writeRunRecord(w, r.record);
        w.endObject();
    }
    w.endArray();
    // Fleet rollup: the mergeable histogram layout makes cross-run
    // percentiles a per-VM element-wise sum. Only present when some
    // run carried metrics, so metrics-off sweeps stay byte-identical.
    bool any_metrics = false;
    for (const auto &r : results)
        any_metrics = any_metrics || !r.record.metrics.empty();
    if (any_metrics) {
        metrics::MetricsReport fleet;
        for (const auto &r : results)
            metrics::mergeInto(fleet, r.record.metrics);
        for (auto &vm : fleet.vms) {
            // Time-series do not aggregate across runs; the rollup
            // keeps only the additive totals and histograms.
            vm.slowdown_series = metrics::MetricsSeries{};
            vm.slowdown_series.name = "slowdown_ppm";
            vm.series.clear();
        }
        w.key("metrics_fleet");
        metrics::writeMetricsReport(w, fleet);
    }
    w.endObject();
    os << '\n';
    hos_assert(w.balanced(), "unbalanced sweep results JSON");
}

bool
writeSweepResultsJson(const std::string &path, const Sweep &sweep,
                      const std::vector<SweepResult> &results)
{
    std::ofstream os(path);
    if (!os) {
        sim::warn("cannot open results file '%s'", path.c_str());
        return false;
    }
    writeSweepResultsJson(os, sweep, results);
    return os.good();
}

} // namespace hos::core
