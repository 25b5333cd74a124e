/**
 * @file
 * hos::xray: the placement-quality shadow must agree with ground
 * truth exactly. Each test pins one leg of the reconciliation:
 * per-page tier shadows are the exact complement partner of the
 * ResidencyIndex fast bits, the golden-matrix aggregates survive the
 * exhaustive check::auditXray walk, decision provenance carries the
 * engine's real inputs, the audit catches seeded corruption, and the
 * report round-trips through its JSON form byte-for-byte.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/auditors.hh"
#include "core/experiment.hh"
#include "guestos/residency.hh"
#include "xray/report.hh"
#include "xray/xray.hh"

#include "test_helpers.hh"

namespace {

using namespace hos;
using guestos::Gpfn;

/** Mirror of the golden-determinism matrix (one VM, three policies). */
std::vector<core::Scenario>
goldenMatrix()
{
    std::vector<core::Scenario> matrix;
    for (const core::Approach a :
         {core::Approach::HeteroLru, core::Approach::VmmExclusive,
          core::Approach::Coordinated}) {
        matrix.push_back(core::Scenario{}
                             .withApp(workload::AppId::GraphChi)
                             .withApproach(a)
                             .withScale(0.02)
                             .withCapacity(24 * mem::mib, 96 * mem::mib)
                             .withSeed(3));
    }
    return matrix;
}

/** Seed every already-allocated page into `rec` (HeteroSystem idiom). */
void
seedShadow(xray::Recorder &rec, guestos::GuestKernel &kernel)
{
    for (std::uint64_t pfn = 0; pfn < kernel.pages().size(); ++pfn) {
        if (!kernel.pages().page(pfn).allocated())
            continue;
        rec.onAlloc(0, pfn,
                    static_cast<std::uint8_t>(kernel.backingOf(pfn)),
                    kernel.events().now());
    }
}

TEST(Xray, ShadowIsComplementOfResidencyFastBits)
{
    // The ResidencyIndex tracks "is this binding FastMem-backed" per
    // region index; xray tracks "which tier is this gpfn in" per
    // page. Over the same pages the two views must be exact
    // complements: fastBit set iff the shadow tier is the fast tier,
    // and the region's fast fraction is one minus the misplaced
    // fraction with no rounding slack.
    if (!xray::xrayCompiled)
        GTEST_SKIP() << "hooks compiled out (HOS_XRAY=off)";
    auto kernel = test::standaloneGuest(16 * mem::mib, 64 * mem::mib);
    xray::Recorder rec;
    xray::XrayConfig cfg;
    cfg.full_provenance = true;
    rec.enable(cfg);
    seedShadow(rec, *kernel);
    xray::ScopedRecorder guard(&rec);

    auto &as = kernel->createProcess("p");
    const std::uint64_t n = 64;
    const std::uint64_t va =
        as.mmap(n * mem::pageSize, guestos::VmaKind::Anon,
                guestos::MemHint::SlowMem);
    const auto region =
        kernel->residency().registerRegion(as.pid(), va);
    std::vector<Gpfn> pfns;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Gpfn pfn = as.touch(va + i * mem::pageSize, true);
        pfns.push_back(pfn);
        kernel->residency().appendPage(region, pfn);
    }

    // Mixed placement: promote a third so both views have both kinds.
    std::vector<Gpfn> some(pfns.begin(), pfns.begin() + 21);
    ASSERT_EQ(kernel->migrator()
                  .migratePages(some, mem::MemType::FastMem)
                  .migrated,
              21u);

    auto &res = kernel->residency();
    std::uint64_t fast_bits = 0;
    std::uint64_t shadow_fast = 0;
    for (std::uint64_t i = 0; i < res.pageCount(region); ++i) {
        const Gpfn pfn = res.binding(region, i);
        const bool bit = res.fastBit(region, i);
        ASSERT_TRUE(rec.live(0, pfn)) << "gpfn " << pfn;
        EXPECT_EQ(bit, rec.shadowTier(0, pfn) == xray::fastTier)
            << "views disagree at region index " << i;
        fast_bits += bit ? 1 : 0;
        shadow_fast += rec.shadowTier(0, pfn) == xray::fastTier;
    }
    EXPECT_EQ(fast_bits, res.fastTotal(region));
    // Exact complement: fast + misplaced = every region page.
    EXPECT_EQ(res.fastTotal(region) + (n - shadow_fast), n);
    const double fast_frac =
        static_cast<double>(res.fastTotal(region)) /
        static_cast<double>(n);
    const double misplaced_frac =
        static_cast<double>(n - shadow_fast) / static_cast<double>(n);
    EXPECT_EQ(fast_frac, 1.0 - misplaced_frac);
}

TEST(Xray, GoldenMatrixReconcilesWithExhaustiveAudit)
{
    if (!xray::xrayCompiled)
        GTEST_SKIP() << "hooks compiled out (HOS_XRAY=off)";
    for (const core::Scenario &s : goldenMatrix()) {
        core::Scenario x = s;
        x.withXray();
        auto sys = core::systemFor(x);
        // runOne already enforces auditXray at the end; re-running it
        // here pins the bit-for-bit reconciliation explicitly and
        // counts the invariants evaluated.
        sys->runOne(sys->slot(0), workload::makeApp(x.app, x.scale));
        const auto audit =
            check::auditXray(sys->vmm(), sys->xrayRecorder());
        EXPECT_TRUE(audit.ok())
            << s.label() << ": "
            << (audit.failures.empty()
                    ? std::string()
                    : audit.failures.front().describe());
        EXPECT_GT(audit.checks, 0u) << s.label();

        // The derived quality metrics are pure complements of the
        // per-tier aggregates; the report must carry them unchanged.
        const xray::Recorder &rec = sys->xrayRecorder();
        const auto report = rec.report();
        ASSERT_FALSE(report.empty()) << s.label();
        for (const auto &vm : report.vms) {
            const auto id = vm.vm;
            std::uint64_t hot = 0;
            std::uint64_t hot_heat_nonfast = 0;
            for (std::size_t t = 0; t < xray::numTiers; ++t) {
                const auto tier = static_cast<std::uint8_t>(t);
                EXPECT_EQ(vm.tiers[t].pages, rec.pagesIn(id, tier));
                EXPECT_EQ(vm.tiers[t].hot_pages, rec.hotIn(id, tier));
                EXPECT_EQ(vm.tiers[t].heat_mass,
                          rec.heatMassIn(id, tier));
                EXPECT_EQ(vm.tiers[t].hot_heat_mass,
                          rec.hotHeatMassIn(id, tier));
                hot += rec.hotIn(id, tier);
                if (tier != xray::fastTier)
                    hot_heat_nonfast += rec.hotHeatMassIn(id, tier);
            }
            EXPECT_EQ(rec.hotTotal(id), hot);
            EXPECT_EQ(rec.hotMisplaced(id),
                      hot - rec.hotIn(id, xray::fastTier));
            EXPECT_EQ(rec.misplacedHeatMass(id), hot_heat_nonfast);
            EXPECT_EQ(vm.hotMisplaced(), rec.hotMisplaced(id));
            EXPECT_EQ(vm.misplacedHeatMass(),
                      rec.misplacedHeatMass(id));
        }
    }
}

TEST(Xray, ProvenanceCarriesEngineDecisionInputs)
{
    // VMM-exclusive drives both migrateBacking and the
    // promote-with-eviction exchange; with full provenance every page
    // rings. At least one promotion and one demotion must surface in
    // the exported rings with the engine's actual inputs: the EWMA
    // heat and threshold the decision saw, the candidate rank, and
    // the decision tick.
    // The golden matrix is sized for speed, too small for the scan
    // epochs to promote anything; shrink FastMem and run longer so
    // the engine actually exercises both directions.
    if (!xray::xrayCompiled)
        GTEST_SKIP() << "hooks compiled out (HOS_XRAY=off)";
    core::Scenario s = goldenMatrix()[1];
    ASSERT_EQ(s.approach, core::Approach::VmmExclusive);
    s.withScale(0.1).withSeed(1).withCapacity(
        static_cast<std::uint64_t>(0.1 * 8 * mem::gib * 0.25),
        static_cast<std::uint64_t>(0.1 * 8 * mem::gib));

    core::HeteroSystem sys(s.host());
    xray::XrayConfig cfg;
    cfg.full_provenance = true;
    cfg.export_pages = 4096;
    sys.enableXray(cfg);
    auto &slot = sys.addVm(core::makePolicy(s.approach), s.sizing());
    sys.runOne(slot, workload::makeApp(s.app, s.scale));

    const auto report = sys.xrayRecorder().report();
    ASSERT_EQ(report.vms.size(), 1u);
    const auto &vm = report.vms.front();
    ASSERT_GT(vm.count(xray::EventKind::Promote), 0u);
    ASSERT_GT(vm.count(xray::EventKind::Demote), 0u);

    std::uint64_t promotes = 0;
    std::uint64_t demotes = 0;
    for (const auto &page : vm.pages) {
        for (const auto &e : page.events) {
            if (e.kind == xray::EventKind::Promote) {
                ++promotes;
                EXPECT_GT(e.tick, 0u);
                EXPECT_EQ(e.threshold, vm.threshold);
                // The engine only promotes tracker-hot pages.
                EXPECT_GE(e.heat, e.threshold);
                EXPECT_EQ(e.tier_to, xray::fastTier);
                EXPECT_NE(e.tier_from, xray::fastTier);
            } else if (e.kind == xray::EventKind::Demote) {
                ++demotes;
                EXPECT_GT(e.tick, 0u);
                EXPECT_EQ(e.tier_from, xray::fastTier);
                EXPECT_NE(e.tier_to, xray::fastTier);
            }
        }
    }
    EXPECT_GT(promotes, 0u) << "no promotion ring survived export";
    EXPECT_GT(demotes, 0u) << "no demotion ring survived export";
}

TEST(Xray, AuditCatchesSeededCorruption)
{
    if (!xray::xrayCompiled)
        GTEST_SKIP() << "hooks compiled out (HOS_XRAY=off)";
    core::Scenario s = goldenMatrix()[1];
    s.withXray();
    auto sys = core::systemFor(s);
    sys->runOne(sys->slot(0), workload::makeApp(s.app, s.scale));
    ASSERT_TRUE(
        check::auditXray(sys->vmm(), sys->xrayRecorder()).ok());

    // Flip one page's heat behind the recorder's back: the exhaustive
    // walk must pin it as a CheckKind::Xray failure.
    auto &kernel = *sys->slot(0).kernel;
    for (std::uint64_t pfn = 0; pfn < kernel.pages().size(); ++pfn) {
        if (!kernel.pages().page(pfn).allocated())
            continue;
        kernel.pageMeta(pfn).setHeat(kernel.pageMeta(pfn).heat() + 1);
        const auto audit =
            check::auditXray(sys->vmm(), sys->xrayRecorder());
        ASSERT_FALSE(audit.ok());
        EXPECT_EQ(audit.failures.front().kind, check::CheckKind::Xray);
        kernel.pageMeta(pfn).setHeat(kernel.pageMeta(pfn).heat() - 1);
        break;
    }
    EXPECT_TRUE(
        check::auditXray(sys->vmm(), sys->xrayRecorder()).ok());
}

TEST(Xray, ReportRoundTripsThroughJson)
{
    core::Scenario s = goldenMatrix()[2];
    s.withXray();
    auto sys = core::systemFor(s);
    sys->runOne(sys->slot(0), workload::makeApp(s.app, s.scale));

    const auto serialize = [](const xray::XrayReport &r) {
        std::ostringstream os;
        sim::JsonWriter w(os);
        xray::writeXrayReport(w, r);
        return os.str();
    };
    const std::string json = serialize(sys->xrayRecorder().report());
    ASSERT_TRUE(test::jsonWellFormed(json));

    std::string error;
    const auto doc = sim::jsonParse(json, &error);
    ASSERT_TRUE(doc.has_value()) << error;
    const auto parsed = xray::xrayReportFromJson(*doc, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(serialize(parsed), json);
}

TEST(Xray, InactiveRecorderSeesNothing)
{
    // Without a ScopedRecorder install the hooks are dead: a full
    // guest lifecycle leaves a fresh recorder empty.
    xray::Recorder rec;
    {
        auto kernel = test::standaloneGuest(8 * mem::mib, 32 * mem::mib);
        auto &as = kernel->createProcess("p");
        const std::uint64_t va = as.mmap(
            64 * mem::pageSize, guestos::VmaKind::Anon,
            guestos::MemHint::SlowMem);
        for (std::uint64_t i = 0; i < 64; ++i)
            as.touch(va + i * mem::pageSize, true);
    }
    EXPECT_EQ(rec.numVms(), 0u);
    EXPECT_EQ(rec.report().vms.size(), 0u);
}

} // namespace
