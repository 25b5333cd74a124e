// Fixture: telemetry-purity's integer-only leg. Floating point in
// src/xray (lexed under a virtual src/xray/ path). Never compiled.
double
misplacedFrac(unsigned long num, unsigned long den)
{
    return den == 0 ? 0.0
                    : static_cast<double>(num) /
                          static_cast<float>(den);
}
