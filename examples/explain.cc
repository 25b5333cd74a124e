/**
 * @file
 * hos-explain: interrogate a run's placement x-ray — why pages landed
 * where they did, and how good placement was overall.
 *
 * Usage:
 *   hos-explain [options] RESULTS.json
 *
 *   RESULTS.json  results from `run_experiment --xray --results=`
 *                 (top-level "xray" object) or a sweep aggregate
 *                 ("runs"[]."record"."xray"; pick one with --run=N)
 *
 * Options:
 *   --page=GPFN   the page's full decision history: every recorded
 *                 alloc/heat-crossing/promote/demote/skip with the
 *                 policy inputs (heat, threshold, candidate rank) the
 *                 decision saw
 *   --vm=N        restrict --page / listings to one VM id
 *   --at=TICK     with --page: also resolve "where was the page and
 *                 why" as of sim tick TICK
 *   --top=N       top-N misplaced pages (hottest first; default 10)
 *   --promoted    every recorded promotion with its decision inputs
 *   --demoted     every recorded demotion with its decision inputs
 *   --run=N       which sweep run's xray section to read (default 0)
 *
 * With no option beyond the file, prints the per-VM quality summary:
 * misplaced-hotness mass, cold-in-fast, lag histograms, ping-pongs
 * and the decision mix.
 *
 * Exit codes: 0 ok, 1 requested page/records not found, 2 usage or
 * load error. Note: in HOS_XRAY=sampled builds only a deterministic
 * 1-in-64 gpfn sample carries a ring (aggregates cover every page);
 * build with -DHOS_XRAY=full for per-page history of everything.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/report.hh"
#include "sim/flags.hh"
#include "sim/json.hh"
#include "xray/report.hh"
#include "xray/xray.hh"

using namespace hos;

namespace {

void
usage()
{
    std::puts(
        "usage: hos-explain [options] RESULTS.json\n"
        "options:\n"
        "  --page=GPFN   full decision history of one page\n"
        "  --vm=N        restrict to one VM id\n"
        "  --at=TICK     with --page: placement as of this sim tick\n"
        "  --top=N       top-N misplaced pages (default 10)\n"
        "  --promoted    all recorded promotions with decision inputs\n"
        "  --demoted     all recorded demotions with decision inputs\n"
        "  --run=N       sweep aggregate: which run to read (default 0)");
}

const std::vector<const char *> kKnownFlags = {
    "--page=", "--vm=", "--at=", "--top=", "--top",
    "--promoted", "--demoted", "--run=",
};

bool
loadXray(const std::string &path, std::size_t run_idx,
         xray::XrayReport &out, std::string &error)
{
    const auto doc = sim::jsonParseFile(path, &error);
    if (!doc)
        return false;
    const auto *x = core::reportSection(*doc, "xray", run_idx, error);
    if (x == nullptr)
        return false;
    out = xray::xrayReportFromJson(*x, &error);
    return error.empty();
}

const char *
dirArrow(const xray::Event &e)
{
    if (e.tier_from == xray::noTier || e.tier_to == xray::noTier)
        return "";
    return xray::tierRank(e.tier_to) < xray::tierRank(e.tier_from)
               ? " (promotion)"
               : " (demotion)";
}

void
printEvent(const xray::Event &e)
{
    std::printf("  t=%-12" PRIu64 " %-14s", e.tick,
                xray::eventKindName(e.kind));
    if (e.tier_from != xray::noTier || e.tier_to != xray::noTier) {
        std::printf(" %s->%s%s", xray::tierName(e.tier_from),
                    xray::tierName(e.tier_to), dirArrow(e));
    }
    switch (e.kind) {
      case xray::EventKind::Promote:
      case xray::EventKind::Demote:
        std::printf(" heat=%u threshold=%u rank=%u lag_ns=%" PRIu64
                    " bounces=%" PRIu64,
                    e.heat, e.threshold, e.rank, e.a0, e.a1);
        break;
      case xray::EventKind::HotCross:
      case xray::EventKind::Cooled:
        std::printf(" heat=%u threshold=%u", e.heat, e.threshold);
        break;
      case xray::EventKind::DrfReclaim:
        std::printf(" victim_vm=%u frames=%" PRIu64
                    " req_share_ppm=%" PRIu64 " victim_share_ppm=%" PRIu64,
                    e.rank, e.a0, e.a1 >> 32,
                    e.a1 & 0xffffffff);
        break;
      case xray::EventKind::Throttle:
        std::printf(" candidates=%" PRIu64 " budget=%" PRIu64, e.a0,
                    e.a1);
        break;
      case xray::EventKind::BalloonOut:
        std::printf(" surrendered=%" PRIu64 " requested=%" PRIu64,
                    e.a0, e.a1);
        break;
      default:
        if (e.heat != 0 || e.rank != 0)
            std::printf(" heat=%u rank=%u", e.heat, e.rank);
        break;
    }
    std::printf("\n");
}

void
printSummary(const xray::XrayReport &report)
{
    std::printf("placement x-ray (ring_depth=%u, pingpong_window=%"
                PRIu64 " ns)\n",
                report.ring_depth, report.pingpong_window_ns);
    for (const auto &vm : report.vms) {
        const std::uint64_t hot = vm.hotTotal();
        const std::uint64_t mis = vm.hotMisplaced();
        std::printf("\nvm %u (hot threshold %u)\n", vm.vm,
                    vm.threshold);
        for (std::size_t t = 0; t < xray::numTiers; ++t) {
            const auto &tier = vm.tiers[t];
            if (tier.pages == 0 && tier.heat_mass == 0)
                continue;
            std::printf("  %-6s pages=%-8" PRIu64 " hot=%-8" PRIu64
                        " heat_mass=%-10" PRIu64 " hot_heat_mass=%"
                        PRIu64 "\n",
                        xray::tierName(static_cast<std::uint8_t>(t)),
                        tier.pages, tier.hot_pages, tier.heat_mass,
                        tier.hot_heat_mass);
        }
        std::printf("  quality: hot=%" PRIu64 " misplaced=%" PRIu64
                    " (%.1f%%) cold_in_fast=%" PRIu64
                    " misplaced_heat_mass=%" PRIu64 "\n",
                    hot, mis,
                    hot > 0 ? 100.0 * static_cast<double>(mis) /
                                  static_cast<double>(hot)
                            : 0.0,
                    vm.coldInFast(), vm.misplacedHeatMass());
        std::printf("  decisions:");
        bool any = false;
        for (std::size_t k = 0; k < xray::numEventKinds; ++k) {
            if (vm.kind_counts[k] == 0)
                continue;
            std::printf(" %s=%" PRIu64,
                        xray::eventKindName(
                            static_cast<xray::EventKind>(k)),
                        vm.kind_counts[k]);
            any = true;
        }
        std::printf("%s\n", any ? "" : " (none)");
        std::printf("  ping-pong: events=%" PRIu64 " pages=%" PRIu64
                    "\n",
                    vm.pingpong_events, vm.pingpong_pages);
        const auto print_lag =
            [](const char *label,
               const std::vector<std::pair<std::uint64_t,
                                           std::uint64_t>> &lag) {
                if (lag.empty())
                    return;
                std::printf("  %s:", label);
                for (const auto &[lo, n] : lag)
                    std::printf(" [>=%" PRIu64 "ns]=%" PRIu64, lo, n);
                std::printf("\n");
            };
        print_lag("promote lag", vm.promote_lag);
        print_lag("demote lag", vm.demote_lag);
        std::printf("  rings: %" PRIu64 " page(s) recorded, %zu "
                    "exported; %" PRIu64 " vm-level event(s)\n",
                    vm.pages_ringed, vm.pages.size(),
                    vm.vm_events_total);
    }
}

/** VM filter: all VMs when `vm_id` is unset. */
bool
vmSelected(const xray::XrayVm &vm, std::optional<std::uint64_t> vm_id)
{
    return !vm_id || vm.vm == *vm_id;
}

int
explainPage(const xray::XrayReport &report, std::uint64_t gpfn,
            std::optional<std::uint64_t> vm_id,
            std::optional<std::uint64_t> at)
{
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        for (const auto &page : vm.pages) {
            if (page.gpfn != gpfn)
                continue;
            std::printf("vm %u gpfn %" PRIu64 ": %zu of %" PRIu64
                        " event(s) retained\n",
                        vm.vm, gpfn, page.events.size(),
                        page.total_events);
            for (const auto &e : page.events)
                printEvent(e);
            if (at) {
                const xray::Event *last = nullptr;
                std::uint8_t tier = xray::noTier;
                for (const auto &e : page.events) {
                    if (e.tick > *at)
                        break;
                    last = &e;
                    if (e.tier_to != xray::noTier)
                        tier = e.tier_to;
                    if (e.kind == xray::EventKind::Free)
                        tier = xray::noTier;
                }
                if (!last) {
                    std::printf("at t=%" PRIu64 ": no retained record "
                                "yet\n",
                                *at);
                } else {
                    std::printf(
                        "at t=%" PRIu64 ": in %s — last decision at "
                        "t=%" PRIu64 " was %s (heat=%u threshold=%u "
                        "rank=%u)\n",
                        *at, xray::tierName(tier), last->tick,
                        xray::eventKindName(last->kind), last->heat,
                        last->threshold, last->rank);
                }
            }
            return 0;
        }
    }
    std::fprintf(stderr,
                 "gpfn %" PRIu64 " has no exported ring%s (sampled "
                 "builds ring 1 in 64 pages; use -DHOS_XRAY=full)\n",
                 gpfn, vm_id ? "" : " in any vm");
    return 1;
}

int
listMoves(const xray::XrayReport &report, xray::EventKind kind,
          std::optional<std::uint64_t> vm_id)
{
    std::uint64_t n = 0;
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        for (const auto &page : vm.pages) {
            for (const auto &e : page.events) {
                if (e.kind != kind)
                    continue;
                std::printf("vm %u gpfn %-10" PRIu64, vm.vm,
                            page.gpfn);
                printEvent(e);
                ++n;
            }
        }
    }
    if (n == 0) {
        std::fprintf(stderr, "no recorded %s events\n",
                     xray::eventKindName(kind));
        return 1;
    }
    return 0;
}

int
listTop(const xray::XrayReport &report, std::uint64_t top,
        std::optional<std::uint64_t> vm_id)
{
    std::uint64_t n = 0;
    for (const auto &vm : report.vms) {
        if (!vmSelected(vm, vm_id))
            continue;
        std::printf("vm %u top misplaced (hot pages outside fast):\n",
                    vm.vm);
        std::uint64_t shown = 0;
        for (const auto &p : vm.top_misplaced) {
            if (shown++ >= top)
                break;
            std::printf("  gpfn %-10" PRIu64 " heat=%-5u tier=%s\n",
                        p.gpfn, p.heat, xray::tierName(p.tier));
            ++n;
        }
        if (shown == 0)
            std::printf("  (none — every hot page is fast-backed)\n");
    }
    return n > 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::optional<std::uint64_t> page, vm_id, at, top, run;
    bool promoted = false;
    bool demoted = false;
    // Numeric values parse strictly: "--run=abc" is an error, not
    // run 0.
    const std::pair<const char *, std::optional<std::uint64_t> *>
        numeric[] = {{"--page=", &page}, {"--vm=", &vm_id},
                     {"--at=", &at},     {"--top=", &top},
                     {"--run=", &run}};

    // Flags and the results file may come in any order.
    const char *file = nullptr;
    for (int arg = 1; arg < argc; ++arg) {
        const std::string a = argv[arg];
        const auto *num = std::find_if(
            std::begin(numeric), std::end(numeric),
            [&](const auto &f) { return a.rfind(f.first, 0) == 0; });
        if (std::strncmp(argv[arg], "--", 2) != 0) {
            if (file) {
                usage();
                return 2;
            }
            file = argv[arg];
        } else if (num != std::end(numeric)) {
            std::uint64_t n = 0;
            if (!sim::flagValue(a, n)) {
                usage();
                return 2;
            }
            *num->second = n;
        } else if (a == "--top") {
            top = 10;
        } else if (a == "--promoted") {
            promoted = true;
        } else if (a == "--demoted") {
            demoted = true;
        } else {
            sim::reportBadFlag("unknown option", a, kKnownFlags);
            usage();
            return 2;
        }
    }
    if (!file) {
        usage();
        return 2;
    }

    xray::XrayReport report;
    std::string error;
    if (!loadXray(file, run.value_or(0), report, error)) {
        std::fprintf(stderr, "%s: %s\n", file, error.c_str());
        return 2;
    }
    if (report.empty()) {
        std::fprintf(stderr,
                     "xray section is empty (HOS_XRAY=off build?)\n");
        return 1;
    }

    if (page)
        return explainPage(report, *page, vm_id, at);
    int rc = 0;
    bool acted = false;
    if (promoted) {
        rc |= listMoves(report, xray::EventKind::Promote, vm_id);
        acted = true;
    }
    if (demoted) {
        rc |= listMoves(report, xray::EventKind::Demote, vm_id);
        acted = true;
    }
    if (top) {
        rc |= listTop(report, *top, vm_id);
        acted = true;
    }
    if (!acted)
        printSummary(report);
    return rc;
}
