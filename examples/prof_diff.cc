/**
 * @file
 * hos-profdiff: compare the span-profiler ledgers of two runs and
 * gate on regressions.
 *
 * Usage:
 *   hos-profdiff [options] BEFORE.json AFTER.json
 *
 *   BEFORE/AFTER  results JSON from `run_experiment --prof --results=`
 *                 (top-level "profile" object) or a sweep aggregate
 *                 ("runs"[]."record"."profile" — summed across runs)
 *
 * Options:
 *   --threshold=PCT  fail (exit 1) when any per-kind sim-time total
 *                    grew by more than PCT percent (default 5)
 *   --exact          fail on ANY sim-time difference — the CI
 *                    determinism gate (same scenario run twice must
 *                    produce bit-identical ledgers)
 *   --json=FILE      also write the diff as hos-profdiff-1 JSON
 *
 * Exit codes: 0 within threshold, 1 regression (or any difference
 * under --exact), 2 usage or load error.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.hh"
#include "prof/diff.hh"
#include "prof/report.hh"
#include "sim/flags.hh"
#include "sim/json.hh"

using namespace hos;

namespace {

void
usage()
{
    std::puts(
        "usage: hos-profdiff [options] BEFORE.json AFTER.json\n"
        "options:\n"
        "  --threshold=PCT  max allowed per-kind growth in percent "
        "(default 5)\n"
        "  --exact          fail on any sim-time difference\n"
        "  --json=FILE      write the diff as JSON");
}

const std::vector<const char *> kKnownFlags = {
    "--threshold=", "--exact", "--json=",
};

/**
 * Pull the profile ledger out of a results file: either a single
 * record's top-level "profile", or the sum over a sweep aggregate's
 * "runs"[]."record"."profile".
 */
bool
loadProfile(const std::string &path, prof::ProfileReport &out,
            std::string &error)
{
    const auto doc = sim::jsonParseFile(path, &error);
    if (!doc)
        return false;
    const auto sections = core::reportSections(*doc, "profile", error);
    for (const auto *profile : sections) {
        prof::mergeInto(out, prof::profileReportFromJson(*profile, &error));
        if (!error.empty())
            return false;
    }
    return !sections.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    double threshold_pct = 5.0;
    bool exact = false;
    std::string json_file;

    int arg = 1;
    for (; arg < argc && std::strncmp(argv[arg], "--", 2) == 0; ++arg) {
        const std::string a = argv[arg];
        if (a.rfind("--threshold=", 0) == 0) {
            if (!sim::flagValue(a, threshold_pct)) {
                usage();
                return 2;
            }
        } else if (a == "--exact") {
            exact = true;
        } else if (a.rfind("--json=", 0) == 0) {
            json_file = a.substr(7);
        } else {
            sim::reportBadFlag("unknown option", a, kKnownFlags);
            usage();
            return 2;
        }
    }
    if (argc - arg != 2) {
        usage();
        return 2;
    }

    prof::ProfileReport before, after;
    std::string error;
    if (!loadProfile(argv[arg], before, error)) {
        std::fprintf(stderr, "%s: %s\n", argv[arg], error.c_str());
        return 2;
    }
    if (!loadProfile(argv[arg + 1], after, error)) {
        std::fprintf(stderr, "%s: %s\n", argv[arg + 1], error.c_str());
        return 2;
    }

    const auto diff = prof::diffProfiles(before, after);
    prof::printDiff(diff, std::cout);

    if (!json_file.empty()) {
        std::ofstream os(json_file);
        if (!os) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         json_file.c_str());
            return 2;
        }
        prof::writeDiffJson(diff, threshold_pct, os);
    }

    if (exact) {
        if (!diff.identical()) {
            std::printf("FAIL: ledgers differ (--exact)\n");
            return 1;
        }
        std::printf("OK: ledgers identical\n");
        return 0;
    }
    if (prof::hasRegression(diff, threshold_pct)) {
        std::printf("FAIL: per-kind growth exceeds %.1f%%\n",
                    threshold_pct);
        return 1;
    }
    std::printf("OK: within %.1f%% threshold\n", threshold_pct);
    return 0;
}
