// Fixture: retired-api. Pre-Scenario API names that were removed in
// the Scenario redesign, and a legacy cross-check switch removed once
// golden fingerprints pinned it. Never compiled.
struct RunSpec;
struct System;

void
launch(RunSpec &spec, System &sys)
{
    runApp(spec);
    sys.setLegacyBalloonPath(true);
}
