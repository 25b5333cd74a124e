/**
 * @file
 * hos-timeline: render a run's windowed metrics — per-VM slowdown
 * percentiles, signal sparklines, and cross-run percentile diffs.
 *
 * Usage:
 *   hos-timeline [options] RESULTS.json
 *   hos-timeline --diff A.json B.json
 *
 *   RESULTS.json  results from `run_experiment --metrics --results=`
 *                 (top-level "metrics" object) or a sweep aggregate
 *                 ("runs"[]."record"."metrics"; pick one with --run=N)
 *
 * Options:
 *   --vm=N        restrict output to one VM id
 *   --run=N       sweep aggregate: which run's metrics to read
 *                 (default 0)
 *   --csv=FILE    dump every series as CSV (vm,series,kind,t_ns,value)
 *   --diff A B    compare per-VM P50/P99 slowdown between two results
 *                 files: exit 0 when every percentile is within 5% of
 *                 file A, 1 when any shifted more
 *
 * Exit codes: 0 ok / no shift, 1 no metrics found or --diff shift
 * beyond 5%, 2 usage or load error.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "metrics/metrics.hh"
#include "core/report.hh"
#include "metrics/report.hh"
#include "sim/flags.hh"
#include "sim/json.hh"
#include "sim/table.hh"

using namespace hos;

namespace {

void
usage()
{
    std::puts(
        "usage: hos-timeline [options] RESULTS.json\n"
        "       hos-timeline --diff A.json B.json\n"
        "options:\n"
        "  --vm=N      restrict output to one VM id\n"
        "  --run=N     sweep aggregate: which run to read (default 0)\n"
        "  --csv=FILE  dump every series as CSV\n"
        "  --diff A B  exit 1 when per-VM P50/P99 slowdown shifted "
        "more than 5%");
}

const std::vector<const char *> kKnownFlags = {
    "--vm=", "--run=", "--csv=", "--diff",
};

/** Pull the --run'th metrics section out of a results file. */
bool
loadMetrics(const std::string &path, std::size_t run_idx,
            metrics::MetricsReport &out, std::string &error)
{
    const auto doc = sim::jsonParseFile(path, &error);
    if (!doc)
        return false;
    const auto *m = core::reportSection(*doc, "metrics", run_idx, error);
    if (m == nullptr)
        return false;
    out = metrics::metricsReportFromJson(*m, &error);
    return error.empty();
}

/** Unicode sparkline of a series, min..max scaled to 8 block levels. */
std::string
sparkline(const std::vector<std::pair<sim::Tick, std::int64_t>> &points,
          std::size_t width = 48)
{
    static const char *const kBlocks[] = {"▁", "▂", "▃", "▄",
                                          "▅", "▆", "▇", "█"};
    if (points.empty())
        return "(empty)";
    std::int64_t lo = points.front().second, hi = lo;
    for (const auto &[t, v] : points) {
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    // Downsample to `width` columns, bucket-averaging.
    const std::size_t n = points.size();
    const std::size_t cols = std::min(width, n);
    std::string out;
    for (std::size_t c = 0; c < cols; ++c) {
        const std::size_t begin = c * n / cols;
        const std::size_t end = std::max(begin + 1, (c + 1) * n / cols);
        double sum = 0.0;
        for (std::size_t i = begin; i < end; ++i)
            sum += static_cast<double>(points[i].second);
        const double avg = sum / static_cast<double>(end - begin);
        std::size_t level = 0;
        if (hi > lo) {
            level = static_cast<std::size_t>(
                (avg - static_cast<double>(lo)) /
                static_cast<double>(hi - lo) * 7.0 + 0.5);
            level = std::min<std::size_t>(level, 7);
        }
        out += kBlocks[level];
    }
    return out;
}

double
ppmToFactor(std::uint64_t ppm)
{
    return static_cast<double>(ppm) /
           static_cast<double>(metrics::ppmScale);
}

bool
vmSelected(const metrics::MetricsVm &vm, std::optional<std::uint64_t> vm_id)
{
    return !vm_id || vm.vm == *vm_id;
}

void
printReport(const metrics::MetricsReport &report,
            std::optional<std::uint64_t> vm_id)
{
    std::printf("windowed metrics (sample interval %" PRIu64 " ns)\n",
                report.sample_interval_ns);
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        std::printf("\nvm %u: %" PRIu64 " phases, %" PRIu64
                    " samples, %" PRIu64 " slowdown windows\n",
                    vm.vm, vm.phases, vm.samples, vm.windows);

        sim::Table t("slowdown vs all-fast ideal (x)");
        t.header({"p50", "p90", "p99", "p99.9", "min", "max", "mean"});
        const auto &h = vm.slowdown;
        const double mean =
            h.totalCount() > 0
                ? ppmToFactor(h.valueSum() / h.totalCount())
                : 0.0;
        t.row({sim::Table::num(ppmToFactor(h.valueAtPermyriad(5000)), 3),
               sim::Table::num(ppmToFactor(h.valueAtPermyriad(9000)), 3),
               sim::Table::num(ppmToFactor(h.valueAtPermyriad(9900)), 3),
               sim::Table::num(ppmToFactor(h.valueAtPermyriad(9990)), 3),
               sim::Table::num(ppmToFactor(h.minValue()), 3),
               sim::Table::num(ppmToFactor(h.maxValue()), 3),
               sim::Table::num(mean, 3)});
        t.print();

        std::printf("  %-16s %s\n", "slowdown_ppm",
                    sparkline(vm.slowdown_series.points).c_str());
        for (const auto &s : vm.series) {
            std::printf("  %-16s %s", s.name.c_str(),
                        sparkline(s.points).c_str());
            if (!s.points.empty()) {
                std::printf("  last=%" PRId64, s.points.back().second);
                if (s.stride > 1)
                    std::printf(" (1/%" PRIu64 " decimated)", s.stride);
            }
            std::printf("\n");
        }
        std::printf("  totals: actual=%" PRIu64 "ns ideal=%" PRIu64
                    "ns overhead=%" PRIu64 "ns\n",
                    vm.actual_ns, vm.ideal_ns, vm.overhead_ns);
    }
}

const metrics::MetricsVm *
findVm(const metrics::MetricsReport &r, std::uint16_t tag)
{
    for (const auto &vm : r.vms) {
        if (vm.vm == tag)
            return &vm;
    }
    return nullptr;
}

/**
 * Percentile shift gate: returns 1 (and explains) when any per-VM
 * P50/P99 slowdown moved more than 5% relative to the baseline `a`.
 */
int
diffReports(const metrics::MetricsReport &a,
            const metrics::MetricsReport &b)
{
    bool shifted = false;
    sim::Table t("slowdown percentile diff (B vs A)");
    t.header({"vm", "pct", "A", "B", "shift", "verdict"});
    for (const auto &va : a.vms) {
        const auto *vb = findVm(b, va.vm);
        if (vb == nullptr) {
            std::fprintf(stderr, "vm %u present in A but not in B\n",
                         va.vm);
            shifted = true;
            continue;
        }
        const std::pair<const char *, std::uint64_t> pcts[] = {
            {"p50", 5000}, {"p99", 9900}};
        for (const auto &[label, q] : pcts) {
            const std::uint64_t pa = va.slowdown.valueAtPermyriad(q);
            const std::uint64_t pb = vb->slowdown.valueAtPermyriad(q);
            const double base = pa > 0 ? static_cast<double>(pa) : 1.0;
            const double shift_pct =
                (static_cast<double>(pb) - static_cast<double>(pa)) /
                base * 100.0;
            const bool over = shift_pct > 5.0 || shift_pct < -5.0;
            shifted = shifted || over;
            t.row({sim::Table::num(std::uint64_t{va.vm}), label,
                   sim::Table::num(ppmToFactor(pa), 3),
                   sim::Table::num(ppmToFactor(pb), 3),
                   sim::Table::pct(shift_pct),
                   over ? "SHIFT" : "ok"});
        }
    }
    for (const auto &vb : b.vms) {
        if (findVm(a, vb.vm) == nullptr) {
            std::fprintf(stderr, "vm %u present in B but not in A\n",
                         vb.vm);
            shifted = true;
        }
    }
    t.print();
    return shifted ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<std::uint64_t> vm_id;
    std::uint64_t run_idx = 0;
    std::string csv_file;
    bool diff = false;
    std::vector<const char *> files;

    for (int arg = 1; arg < argc; ++arg) {
        const std::string a = argv[arg];
        std::uint64_t n = 0;
        // Numeric values parse strictly: "--run=abc" is an error, not
        // run 0.
        if (std::strncmp(argv[arg], "--", 2) != 0) {
            files.push_back(argv[arg]);
        } else if (a.rfind("--vm=", 0) == 0) {
            if (!sim::flagValue(a, n)) {
                usage();
                return 2;
            }
            vm_id = n;
        } else if (a.rfind("--run=", 0) == 0) {
            if (!sim::flagValue(a, run_idx)) {
                usage();
                return 2;
            }
        } else if (a.rfind("--csv=", 0) == 0) {
            csv_file = a.substr(6);
        } else if (a == "--diff") {
            diff = true;
        } else {
            sim::reportBadFlag("unknown option", a, kKnownFlags);
            usage();
            return 2;
        }
    }
    if ((diff && files.size() != 2) || (!diff && files.size() != 1)) {
        usage();
        return 2;
    }

    metrics::MetricsReport report;
    std::string error;
    if (!loadMetrics(files[0], run_idx, report, error)) {
        std::fprintf(stderr, "%s: %s\n", files[0], error.c_str());
        return 2;
    }
    if (report.empty()) {
        std::fprintf(stderr,
                     "metrics section is empty (HOS_METRICS=off "
                     "build?)\n");
        return 1;
    }

    if (diff) {
        metrics::MetricsReport other;
        if (!loadMetrics(files[1], run_idx, other, error)) {
            std::fprintf(stderr, "%s: %s\n", files[1], error.c_str());
            return 2;
        }
        if (other.empty()) {
            std::fprintf(stderr, "%s: metrics section is empty\n",
                         files[1]);
            return 1;
        }
        return diffReports(report, other);
    }

    if (!csv_file.empty()) {
        std::ofstream os(csv_file);
        if (!os) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         csv_file.c_str());
            return 2;
        }
        metrics::writeMetricsCsv(os, report);
        std::printf("csv: %s\n", csv_file.c_str());
    }
    printReport(report, vm_id);
    return 0;
}
