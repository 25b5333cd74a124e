// Fixture: telemetry-purity, metrics layer. Three violations:
// floating point in a src/metrics file (the test lexes this under a
// virtual src/metrics/ path), a mutating call under a
// HOS_METRICS_LEVEL guard, and a mutating call inside a
// metrics::active() observation block. Never compiled.
struct Kernel;
enum class OverheadKind { HotScan };

double
slowdownFactor(unsigned long actual, unsigned long ideal)
{
    return ideal == 0 ? 1.0
                      : static_cast<double>(actual) /
                            static_cast<double>(ideal);
}

void
sample(Kernel &kernel)
{
#if HOS_METRICS_LEVEL >= 1
    kernel.charge(OverheadKind::HotScan, 7);
#endif
    if (metrics::active()) {
        kernel.migrateBatch(42);
    }
}
