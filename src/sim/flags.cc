#include "sim/flags.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hos::sim {

namespace {

/** Signs and leading blanks are strto*'s, not ours: demand a digit. */
bool
startsWithDigit(const std::string &text)
{
    return !text.empty() &&
           std::isdigit(static_cast<unsigned char>(text[0]));
}

std::string
valueOf(const std::string &arg)
{
    const auto eq = arg.find('=');
    return eq == std::string::npos ? std::string() : arg.substr(eq + 1);
}

} // namespace

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (!startsWithDigit(text))
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseNonNegative(const std::string &text, double &out)
{
    if (!startsWithDigit(text))
        return false;
    char *end = nullptr;
    errno = 0;
    const double v = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

bool
flagValue(const std::string &arg, std::uint64_t &out, std::uint64_t max)
{
    std::uint64_t v = 0;
    if (parseUnsigned(valueOf(arg), v) && v <= max) {
        out = v;
        return true;
    }
    std::fprintf(stderr, "bad value in '%s' (want an integer in 0..%llu)\n",
                 arg.c_str(), static_cast<unsigned long long>(max));
    return false;
}

bool
flagValue(const std::string &arg, double &out)
{
    if (parseNonNegative(valueOf(arg), out))
        return true;
    std::fprintf(stderr, "bad value in '%s' (want a non-negative number)\n",
                 arg.c_str());
    return false;
}

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t up = row[j];
            const std::size_t sub = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
            diag = up;
        }
    }
    return row[b.size()];
}

std::string
nearestFlag(const std::string &arg, const std::vector<const char *> &known)
{
    const std::string name = arg.substr(0, arg.find('='));
    std::string best;
    std::size_t best_d = ~std::size_t(0);
    for (const char *f : known) {
        std::string fname = f;
        if (!fname.empty() && fname.back() == '=')
            fname.pop_back();
        const std::size_t d = editDistance(name, fname);
        if (d < best_d) {
            best_d = d;
            best = fname;
        }
    }
    return best;
}

void
reportBadFlag(const char *why, const std::string &arg,
              const std::vector<const char *> &known)
{
    std::fprintf(stderr, "%s '%s' (did you mean '%s'?)\n", why,
                 arg.c_str(), nearestFlag(arg, known).c_str());
}

} // namespace hos::sim
