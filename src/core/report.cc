#include "core/report.hh"

#include <algorithm>
#include <fstream>

#include "sim/json.hh"
#include "sim/log.hh"

namespace hos::core {

double
slowdownFactor(const workload::Workload::Result &baseline,
               const workload::Workload::Result &other)
{
    const double base = std::max<double>(1.0,
                                         static_cast<double>(
                                             baseline.elapsed));
    return static_cast<double>(other.elapsed) / base;
}

double
gainPercent(const workload::Workload::Result &baseline,
            const workload::Workload::Result &improved)
{
    const double now = std::max<double>(1.0, static_cast<double>(
                                                 improved.elapsed));
    return (static_cast<double>(baseline.elapsed) / now - 1.0) * 100.0;
}

std::vector<const sim::JsonValue *>
reportSections(const sim::JsonValue &doc, const std::string &key,
               std::string &error)
{
    if (!doc.isObject()) {
        error = "top level is not an object";
        return {};
    }
    if (const auto *section = doc.find(key))
        return {section};
    const auto *runs = doc.find("runs");
    if (runs == nullptr) {
        error = "no \"" + key + "\" object and no \"runs\" array " +
                "(was the run made with " + key + " telemetry on?)";
        return {};
    }
    if (!runs->isArray()) {
        error = "\"runs\" is not an array";
        return {};
    }
    std::vector<const sim::JsonValue *> sections;
    for (const auto &run : runs->array) {
        const auto *record = run.find("record");
        if (const auto *section =
                record != nullptr ? record->find(key) : nullptr)
            sections.push_back(section);
    }
    if (sections.empty()) {
        error = "no run in \"runs\" carries a \"" + key +
                "\" section (was the sweep run with " + key +
                " telemetry on?)";
    }
    return sections;
}

const sim::JsonValue *
reportSection(const sim::JsonValue &doc, const std::string &key,
              std::size_t run_idx, std::string &error)
{
    const auto sections = reportSections(doc, key, error);
    if (sections.empty())
        return nullptr;
    if (run_idx >= sections.size()) {
        error = "--run index past the " +
                std::to_string(sections.size()) + " \"" + key +
                "\"-carrying run(s)";
        return nullptr;
    }
    return sections[run_idx];
}

RunRecord
makeRunRecord(const workload::Workload::Result &result,
              const std::string &approach)
{
    RunRecord r;
    r.app = result.workload;
    r.approach = approach;
    r.metric_name = result.metric_name;
    r.runtime_s = result.seconds();
    r.metric = result.metric;
    r.mpki = result.mpki;
    r.phases = result.phases;
    r.instructions = result.instructions;
    r.llc_misses = result.llc_misses;
    return r;
}

void
writeRunRecord(sim::JsonWriter &w, const RunRecord &record)
{
    w.beginObject();
    w.kv("app", record.app);
    w.kv("approach", record.approach);
    w.kv("metric_name", record.metric_name);
    w.kv("runtime_s", record.runtime_s);
    w.kv("metric", record.metric);
    w.kv("gain_pct", record.gain_pct);
    w.kv("mpki", record.mpki);
    w.kv("phases", record.phases);
    w.kv("instructions", record.instructions);
    w.kv("llc_misses", record.llc_misses);
    w.key("extra");
    w.beginObject();
    for (const auto &[name, value] : record.extra)
        w.kv(name, value);
    w.endObject();
    if (!record.profile.empty()) {
        w.key("profile");
        prof::writeProfileReport(w, record.profile);
    }
    if (!record.xray.empty()) {
        w.key("xray");
        xray::writeXrayReport(w, record.xray);
    }
    if (!record.metrics.empty()) {
        w.key("metrics");
        metrics::writeMetricsReport(w, record.metrics);
    }
    w.endObject();
}

void
writeResultsJson(std::ostream &os, const RunRecord &record)
{
    sim::JsonWriter w(os);
    writeRunRecord(w, record);
    os << '\n';
    hos_assert(w.balanced(), "unbalanced results JSON");
}

bool
writeResultsJson(const std::string &path, const RunRecord &record)
{
    std::ofstream os(path);
    if (!os) {
        sim::warn("cannot open results file '%s'", path.c_str());
        return false;
    }
    writeResultsJson(os, record);
    return os.good();
}

} // namespace hos::core
