/**
 * @file
 * Output checks. Each compares against an independent source — the
 * float64 interpreter, a property every softmax output has, or another
 * way of running the same engine — never against a stored copy of an
 * earlier run's output.
 */
#include "bench.hpp"

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

std::size_t
argmax(const orpheus::Tensor &output)
{
    const float *p = output.data<float>();
    std::size_t best = 0;
    for (std::int64_t i = 1; i < output.numel(); ++i)
        if (p[i] > p[best])
            best = static_cast<std::size_t>(i);
    return best;
}

bool
check_close_to_reference(const std::string &what,
                         const orpheus::Tensor &output,
                         const std::vector<double> &reference,
                         Failures &failures)
{
    if (static_cast<std::size_t>(output.numel()) != reference.size()) {
        failures.push_back(what + ": output has " +
                           std::to_string(output.numel()) +
                           " elements, reference " +
                           std::to_string(reference.size()));
        return false;
    }
    const float *p = output.data<float>();
    // Worst ratio of the difference to the element's allowed difference.
    double worst = 0;
    std::size_t worst_at = 0;
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const double ratio = std::fabs(double(p[i]) - reference[i]) /
                             (kProbRtol * reference[i] + kProbAtol);
        if (!(ratio <= worst)) {
            worst = std::isnan(ratio) ? INFINITY : ratio;
            worst_at = i;
        }
    }
    if (worst <= 1.0)
        return true;
    std::ostringstream os;
    os << what << ": element " << worst_at << " is " << p[worst_at]
       << ", the float64 reference " << reference[worst_at]
       << " (tolerance " << kProbRtol << " relative + " << kProbAtol
       << " absolute)";
    failures.push_back(os.str());
    return false;
}

bool
check_top1(const std::string &what, const orpheus::Tensor &output,
           const std::vector<double> &reference, Failures &failures)
{
    std::size_t best = 0;
    for (std::size_t i = 1; i < reference.size(); ++i)
        if (reference[i] > reference[best])
            best = i;
    const std::size_t got = argmax(output);
    if (got == best)
        return true;
    if (got < reference.size() &&
        reference[best] - reference[got] <=
            kProbRtol * (reference[best] + reference[got]) + 2 * kProbAtol)
        return true; // the reference itself cannot separate the two
    std::ostringstream os;
    os << what << ": top-1 is class " << got << ", the float64 reference's "
       << "is " << best << " (p=" << reference[best] << " vs "
       << (got < reference.size() ? reference[got] : -1.0) << ")";
    failures.push_back(os.str());
    return false;
}

bool
check_softmax_rows(const std::string &what, const orpheus::Tensor &output,
                   Failures &failures)
{
    const orpheus::Shape &shape = output.shape();
    const std::int64_t cols = shape.dim(static_cast<int>(shape.rank()) - 1);
    const std::int64_t rows = output.numel() / cols;
    const float *p = output.data<float>();
    bool ok = true;
    for (std::int64_t r = 0; r < rows; ++r) {
        double sum = 0;
        bool in_range = true;
        for (std::int64_t j = 0; j < cols; ++j) {
            const float v = p[r * cols + j];
            in_range = in_range && v >= 0.0f && v <= 1.0f;
            sum += v;
        }
        if (!in_range || !(std::fabs(sum - 1.0) <= kRowSumTolerance)) {
            std::ostringstream os;
            os << what << ": softmax row " << r << " sums to " << sum
               << (in_range ? "" : " with entries outside [0, 1]");
            failures.push_back(os.str());
            ok = false;
        }
    }
    return ok;
}

bool
check_bitwise(const std::string &what, const orpheus::Tensor &a,
              const orpheus::Tensor &b, Failures &failures)
{
    if (a.shape() != b.shape() || a.dtype() != b.dtype()) {
        failures.push_back(what + ": shapes or dtypes differ");
        return false;
    }
    if (std::memcmp(a.raw_data(), b.raw_data(), a.byte_size()) == 0)
        return true;
    const float *pa = a.data<float>();
    const float *pb = b.data<float>();
    std::int64_t first = 0;
    while (first < a.numel() &&
           std::memcmp(pa + first, pb + first, sizeof(float)) == 0)
        ++first;
    std::ostringstream os;
    os << what << ": not bitwise equal (first difference at element "
       << first << ": " << pa[first] << " vs " << pb[first] << ")";
    failures.push_back(os.str());
    return false;
}

bool
check_responses(std::size_t submitted,
                const std::vector<ServedResponse> &responses,
                const std::vector<orpheus::Tensor> &expected,
                Failures &failures)
{
    bool ok = true;
    if (responses.size() != submitted) {
        failures.push_back("serve: " + std::to_string(submitted) +
                           " requests submitted, " +
                           std::to_string(responses.size()) +
                           " responses received");
        ok = false;
    }
    std::size_t reported = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const ServedResponse &r = responses[i];
        if (!r.ok)
            continue; // counted as a failed operation, not a wrong answer
        const std::string what = "serve: response " + std::to_string(i);
        Failures local;
        const bool good = r.input_index < expected.size() &&
                          check_bitwise(what, r.output,
                                        expected[r.input_index], local);
        if (good)
            continue;
        ok = false;
        if (reported++ < 3)
            failures.push_back(local.empty() ? what + " has no expected output"
                                             : local.front());
    }
    return ok;
}

} // namespace perfbench
