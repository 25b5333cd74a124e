/**
 * @file
 * Result arithmetic and machine-readable export for paper-style
 * reporting.
 */

#ifndef HOS_CORE_REPORT_HH
#define HOS_CORE_REPORT_HH

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "metrics/report.hh"
#include "prof/report.hh"
#include "sim/json.hh"
#include "workload/workload.hh"
#include "xray/report.hh"

namespace hos::core {

/** Slowdown factor of `other` relative to `baseline` (>1 = slower). */
double slowdownFactor(const workload::Workload::Result &baseline,
                      const workload::Workload::Result &other);

/**
 * Percent gain of `improved` over `baseline`
 * ((T_base / T_new - 1) * 100; the paper's Figures 9, 11, 13).
 */
double gainPercent(const workload::Workload::Result &baseline,
                   const workload::Workload::Result &improved);

/**
 * One run's results, flattened for export. `extra` holds free-form
 * named values (overhead breakdowns, allocation counts, ...).
 */
struct RunRecord
{
    std::string app;
    std::string approach;
    std::string metric_name;
    double runtime_s = 0.0;
    double metric = 0.0;
    double gain_pct = 0.0;
    double mpki = 0.0;
    std::uint64_t phases = 0;
    std::uint64_t instructions = 0;
    std::uint64_t llc_misses = 0;
    std::vector<std::pair<std::string, double>> extra;
    /**
     * Span-profiler attribution ledger, filled only for profiled runs
     * (Scenario::withProfiling). Empty reports are not emitted, so
     * prof-off results.json stays byte-identical to older versions.
     */
    prof::ProfileReport profile;
    /**
     * Placement-quality telemetry, filled only for x-rayed runs
     * (Scenario::withXray). Same emission rule as `profile`: empty
     * reports are omitted so xray-off results.json is byte-identical.
     */
    xray::XrayReport xray;
    /**
     * Windowed series + slowdown SLO telemetry, filled only for
     * metric'd runs (Scenario::withMetrics). Same emission rule:
     * empty reports are omitted so metrics-off results.json is
     * byte-identical.
     */
    metrics::MetricsReport metrics;
};

/**
 * The `key` sections ("profile", "xray", "metrics") of a parsed
 * results file: its top-level `key` object (a single run), or else
 * the "record".`key` of every sweep run carrying one, in run order.
 * Empty, with `error` set, when the document has none.
 */
std::vector<const sim::JsonValue *>
reportSections(const sim::JsonValue &doc, const std::string &key,
               std::string &error);

/**
 * The `run_idx`'th of reportSections (a top-level section is index
 * 0), or nullptr with `error` set.
 */
const sim::JsonValue *reportSection(const sim::JsonValue &doc,
                                    const std::string &key,
                                    std::size_t run_idx,
                                    std::string &error);

/** Fill the workload-derived fields of a record from a result. */
RunRecord makeRunRecord(const workload::Workload::Result &result,
                        const std::string &approach);

/**
 * Emit one record as a JSON object through an already-open writer —
 * the shared element form used both by single-run results files and
 * by the sweep aggregate's "runs" array.
 */
void writeRunRecord(sim::JsonWriter &w, const RunRecord &record);

/** Write one record as a JSON object ({"app":...,"extra":{...}}). */
void writeResultsJson(std::ostream &os, const RunRecord &record);

/** As above, to a file; false when the file cannot be opened. */
bool writeResultsJson(const std::string &path, const RunRecord &record);

} // namespace hos::core

#endif // HOS_CORE_REPORT_HH
