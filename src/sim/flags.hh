/**
 * @file
 * Command-line plumbing shared by the example CLIs (run_experiment,
 * hos-explain, hos-timeline, hos-profdiff, multi_tenant_drf): strict
 * numeric flag values and the nearest-known-flag hint for typos.
 */

#ifndef HOS_SIM_FLAGS_HH
#define HOS_SIM_FLAGS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hos::sim {

/**
 * Parse a non-negative integer (decimal, or 0x-prefixed hex). False
 * on an empty string, a sign, trailing junk or overflow, so
 * `--run=abc` is an error instead of silently reading run 0.
 */
bool parseUnsigned(const std::string &text, std::uint64_t &out);

/** Parse a non-negative finite real; rejects what parseUnsigned does. */
bool parseNonNegative(const std::string &text, double &out);

/**
 * Parse the VALUE of `arg` = "--name=VALUE" strictly, and for
 * integers also reject values above `max`. On failure, prints "bad
 * value in '<arg>'" with the wanted form to stderr and leaves `out`
 * untouched.
 */
bool flagValue(const std::string &arg, std::uint64_t &out,
               std::uint64_t max = UINT64_MAX);
bool flagValue(const std::string &arg, double &out);

/** Levenshtein distance (insert, delete, substitute: cost 1 each). */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The flag in `known` nearest to `arg`, compared on the name without
 * any "=VALUE" part. `known` lists flags as usage spells them
 * ("--run=", "--exact"); the answer drops the trailing '='.
 */
std::string nearestFlag(const std::string &arg,
                        const std::vector<const char *> &known);

/** Print "<why> '<arg>' (did you mean '<nearest>'?)" to stderr. */
void reportBadFlag(const char *why, const std::string &arg,
                   const std::vector<const char *> &known);

} // namespace hos::sim

#endif // HOS_SIM_FLAGS_HH
