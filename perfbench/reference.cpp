/**
 * @file
 * A float64 reference interpreter for the ops the zoo graphs use.
 *
 * It runs the graph as built — before any simplification, so batch
 * norms are applied, not folded, and every Relu is its own op — with
 * straightforward loops written from the ONNX operator definitions.
 * It shares no kernel code with Orpheus; only the Graph container and
 * its attribute maps are read.
 */
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

using orpheus::Graph;
using orpheus::Node;
using orpheus::Tensor;

struct Value {
    std::vector<std::int64_t> shape;
    std::vector<double> data;
};

std::int64_t
numel(const std::vector<std::int64_t> &shape)
{
    std::int64_t n = 1;
    for (std::int64_t d : shape)
        n *= d;
    return n;
}

Value
from_tensor(const Tensor &t)
{
    Value v;
    for (std::size_t i = 0; i < t.shape().rank(); ++i)
        v.shape.push_back(t.shape().dim(static_cast<int>(i)));
    const float *src = t.data<float>();
    v.data.assign(src, src + t.numel());
    return v;
}

[[noreturn]] void
fail(const Node &node, const std::string &why)
{
    throw std::runtime_error("reference: " + node.op_type() + " '" +
                             node.name() + "': " + why);
}

/** Runs body(i) for i in [0, n) on up to @p threads threads. */
template <typename F>
void
parallel(std::int64_t n, int threads, const F &body)
{
    const std::int64_t t = std::max<std::int64_t>(
        1, std::min<std::int64_t>(threads, n));
    if (t == 1) {
        for (std::int64_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::vector<std::thread> pool;
    for (std::int64_t w = 0; w < t; ++w) {
        pool.emplace_back([&, w] {
            for (std::int64_t i = w; i < n; i += t)
                body(i);
        });
    }
    for (std::thread &th : pool)
        th.join();
}

struct ConvGeometry {
    std::int64_t n, c, h, w;      // input
    std::int64_t m, cg, kh, kw;   // weight: m x cg x kh x kw
    std::int64_t sh, sw, pt, pl;  // strides, top/left padding
    std::int64_t dh, dw, ho, wo;  // dilations, output extent
    std::int64_t group;
};

/** Convolution of any group count, directly from the definition: one
 *  output plane per job. */
void
conv_direct(const ConvGeometry &g, const double *x, const double *w,
            double *y, int threads)
{
    const std::int64_t m_per_group = g.m / g.group;
    parallel(g.n * g.m, threads, [&](std::int64_t job) {
        const std::int64_t b = job / g.m, oc = job % g.m;
        const std::int64_t grp = oc / m_per_group;
        double *out = y + (b * g.m + oc) * g.ho * g.wo;
        for (std::int64_t ic = 0; ic < g.cg; ++ic) {
            const double *in = x + (b * g.c + grp * g.cg + ic) * g.h * g.w;
            for (std::int64_t r = 0; r < g.kh; ++r) {
                for (std::int64_t s = 0; s < g.kw; ++s) {
                    const double wv =
                        w[((oc * g.cg + ic) * g.kh + r) * g.kw + s];
                    // Output columns whose input column lies inside
                    // the image: iw = ow * sw + s * dw - pl in [0, w).
                    const std::int64_t iw0 = s * g.dw - g.pl;
                    std::int64_t ow_begin = 0, ow_end = g.wo;
                    while (ow_begin < ow_end && ow_begin * g.sw + iw0 < 0)
                        ++ow_begin;
                    while (ow_end > ow_begin &&
                           (ow_end - 1) * g.sw + iw0 >= g.w)
                        --ow_end;
                    for (std::int64_t oh = 0; oh < g.ho; ++oh) {
                        const std::int64_t ih = oh * g.sh + r * g.dh - g.pt;
                        if (ih < 0 || ih >= g.h)
                            continue;
                        const double *row = in + ih * g.w + iw0;
                        double *dst = out + oh * g.wo;
                        for (std::int64_t ow = ow_begin; ow < ow_end; ++ow)
                            dst[ow] += wv * row[ow * g.sw];
                    }
                }
            }
        }
    });
}

Value
conv(const Node &node, const Value &x, const Value &w, const Value *bias,
     int threads)
{
    const auto &a = node.attrs();
    const auto strides = a.get_ints("strides", {1, 1});
    const auto pads = a.get_ints("pads", {0, 0, 0, 0});
    const auto dil = a.get_ints("dilations", {1, 1});
    if (x.shape.size() != 4 || w.shape.size() != 4)
        fail(node, "expects 4-D input and weight");
    ConvGeometry g{};
    g.n = x.shape[0], g.c = x.shape[1], g.h = x.shape[2], g.w = x.shape[3];
    g.m = w.shape[0], g.cg = w.shape[1], g.kh = w.shape[2], g.kw = w.shape[3];
    g.sh = strides[0], g.sw = strides[1], g.pt = pads[0], g.pl = pads[1];
    g.dh = dil[0], g.dw = dil[1];
    g.group = a.get_int("group", 1);
    if (g.cg * g.group != g.c || g.m % g.group != 0)
        fail(node, "channel/group mismatch");
    g.ho = (g.h + pads[0] + pads[2] - g.dh * (g.kh - 1) - 1) / g.sh + 1;
    g.wo = (g.w + pads[1] + pads[3] - g.dw * (g.kw - 1) - 1) / g.sw + 1;

    Value y;
    y.shape = {g.n, g.m, g.ho, g.wo};
    y.data.assign(static_cast<std::size_t>(numel(y.shape)), 0.0);
    conv_direct(g, x.data.data(), w.data.data(), y.data.data(), threads);
    if (bias != nullptr) {
        const std::int64_t plane = g.ho * g.wo;
        for (std::int64_t i = 0; i < g.n * g.m; ++i)
            for (std::int64_t p = 0; p < plane; ++p)
                y.data[i * plane + p] += bias->data[i % g.m];
    }
    return y;
}

Value
pool(const Node &node, const Value &x, bool is_max)
{
    const auto &a = node.attrs();
    const auto kernel = a.get_ints("kernel_shape", {});
    const auto strides = a.get_ints("strides", {1, 1});
    const auto pads = a.get_ints("pads", {0, 0, 0, 0});
    const bool include_pad = a.get_int("count_include_pad", 0) != 0;
    const bool ceil_mode = a.get_int("ceil_mode", 0) != 0;
    if (kernel.size() != 2 || x.shape.size() != 4)
        fail(node, "expects a 2-D kernel on a 4-D input");
    const std::int64_t n = x.shape[0], c = x.shape[1], h = x.shape[2],
                       w = x.shape[3];
    const auto out_extent = [&](std::int64_t in, std::int64_t k,
                                std::int64_t s, std::int64_t p0,
                                std::int64_t p1) {
        const std::int64_t span = in + p0 + p1 - k;
        return (ceil_mode ? (span + s - 1) / s : span / s) + 1;
    };
    const std::int64_t ho = out_extent(h, kernel[0], strides[0], pads[0],
                                       pads[2]);
    const std::int64_t wo = out_extent(w, kernel[1], strides[1], pads[1],
                                       pads[3]);
    Value y;
    y.shape = {n, c, ho, wo};
    y.data.resize(static_cast<std::size_t>(numel(y.shape)));
    for (std::int64_t plane = 0; plane < n * c; ++plane) {
        const double *in = x.data.data() + plane * h * w;
        double *out = y.data.data() + plane * ho * wo;
        for (std::int64_t oh = 0; oh < ho; ++oh) {
            for (std::int64_t ow = 0; ow < wo; ++ow) {
                const std::int64_t h0 = oh * strides[0] - pads[0];
                const std::int64_t w0 = ow * strides[1] - pads[1];
                double acc = is_max ? -std::numeric_limits<double>::infinity()
                                    : 0.0;
                std::int64_t count = 0;
                for (std::int64_t r = 0; r < kernel[0]; ++r) {
                    for (std::int64_t s = 0; s < kernel[1]; ++s) {
                        const std::int64_t ih = h0 + r, iw = w0 + s;
                        const bool inside =
                            ih >= 0 && ih < h && iw >= 0 && iw < w;
                        const bool in_padded = ih < h + pads[2] &&
                                               iw < w + pads[3];
                        if (inside) {
                            const double v = in[ih * w + iw];
                            acc = is_max ? std::max(acc, v) : acc + v;
                            ++count;
                        } else if (include_pad && in_padded) {
                            ++count; // a zero from the padding
                        }
                    }
                }
                out[oh * wo + ow] = is_max ? acc : acc / double(count);
            }
        }
    }
    return y;
}

Value
gemm(const Node &node, const Value &a, const Value &b, const Value *c)
{
    const auto &at = node.attrs();
    const bool ta = at.get_int("transA", 0) != 0;
    const bool tb = at.get_int("transB", 0) != 0;
    const double alpha = at.get_float("alpha", 1.0f);
    const double beta = at.get_float("beta", 1.0f);
    if (a.shape.size() != 2 || b.shape.size() != 2)
        fail(node, "expects 2-D operands");
    const std::int64_t m = ta ? a.shape[1] : a.shape[0];
    const std::int64_t k = ta ? a.shape[0] : a.shape[1];
    const std::int64_t n = tb ? b.shape[0] : b.shape[1];
    if ((tb ? b.shape[1] : b.shape[0]) != k)
        fail(node, "inner dimensions differ");
    Value y;
    y.shape = {m, n};
    y.data.assign(static_cast<std::size_t>(m * n), 0.0);
    for (std::int64_t i = 0; i < m; ++i) {
        for (std::int64_t j = 0; j < n; ++j) {
            double acc = 0;
            for (std::int64_t p = 0; p < k; ++p) {
                const double av = ta ? a.data[p * m + i] : a.data[i * k + p];
                const double bv = tb ? b.data[j * k + p] : b.data[p * n + j];
                acc += av * bv;
            }
            double bias = 0;
            if (c != nullptr) {
                const std::int64_t cn = numel(c->shape);
                if (cn == n)
                    bias = c->data[j];
                else if (cn == m * n)
                    bias = c->data[i * n + j];
                else if (cn == 1)
                    bias = c->data[0];
                else
                    fail(node, "bias shape");
            }
            y.data[i * n + j] = alpha * acc + beta * bias;
        }
    }
    return y;
}

std::int64_t
norm_axis(const Node &node, std::int64_t axis, std::size_t rank)
{
    if (axis < 0)
        axis += static_cast<std::int64_t>(rank);
    if (axis < 0 || axis >= static_cast<std::int64_t>(rank))
        fail(node, "axis out of range");
    return axis;
}

Value
softmax(const Node &node, const Value &x)
{
    const std::int64_t axis =
        norm_axis(node, node.attrs().get_int("axis", -1), x.shape.size());
    // ONNX opset-11 semantics: coerce to 2-D at axis.
    std::int64_t rows = 1, cols = 1;
    for (std::size_t d = 0; d < x.shape.size(); ++d)
        (static_cast<std::int64_t>(d) < axis ? rows : cols) *= x.shape[d];
    Value y = x;
    for (std::int64_t r = 0; r < rows; ++r) {
        double *row = y.data.data() + r * cols;
        const double mx = *std::max_element(row, row + cols);
        double sum = 0;
        for (std::int64_t j = 0; j < cols; ++j)
            sum += (row[j] = std::exp(row[j] - mx));
        for (std::int64_t j = 0; j < cols; ++j)
            row[j] /= sum;
    }
    return y;
}

Value
concat(const Node &node, const std::vector<const Value *> &xs)
{
    const std::int64_t axis = norm_axis(
        node, node.attrs().get_int("axis", 1), xs.front()->shape.size());
    Value y;
    y.shape = xs.front()->shape;
    y.shape[axis] = 0;
    for (const Value *x : xs)
        y.shape[axis] += x->shape[axis];
    std::int64_t outer = 1, inner = 1;
    for (std::int64_t d = 0; d < axis; ++d)
        outer *= y.shape[d];
    for (std::size_t d = axis + 1; d < y.shape.size(); ++d)
        inner *= y.shape[d];
    y.data.reserve(static_cast<std::size_t>(numel(y.shape)));
    for (std::int64_t o = 0; o < outer; ++o) {
        for (const Value *x : xs) {
            const std::int64_t chunk = x->shape[axis] * inner;
            const double *src = x->data.data() + o * chunk;
            y.data.insert(y.data.end(), src, src + chunk);
        }
    }
    return y;
}

} // namespace

std::vector<double>
reference_run(const Graph &graph, const Tensor &input, int threads)
{
    if (graph.inputs().size() != 1 || graph.outputs().size() != 1)
        throw std::runtime_error("reference: expects one input and output");

    std::unordered_map<std::string, Value> values;
    values[graph.inputs().front().name] = from_tensor(input);

    // Remaining uses of each value, so activations are freed early.
    std::unordered_map<std::string, int> uses;
    for (const Node &node : graph.nodes())
        for (const std::string &in : node.inputs())
            ++uses[in];
    const std::string &output_name = graph.outputs().front().name;
    ++uses[output_name];

    std::unordered_map<std::string, Value> constants;
    const auto get = [&](const std::string &name) -> const Value & {
        auto it = values.find(name);
        if (it != values.end())
            return it->second;
        auto ct = constants.find(name);
        if (ct == constants.end())
            ct = constants.emplace(name, from_tensor(graph.initializer(name)))
                     .first;
        return ct->second;
    };

    for (std::size_t index : graph.topological_order()) {
        const Node &node = graph.nodes()[index];
        const std::string &op = node.op_type();
        const auto in = [&](std::size_t i) -> const Value & {
            return get(node.input(i));
        };
        Value y;
        if (op == "Conv") {
            y = conv(node, in(0), in(1), node.has_input(2) ? &in(2) : nullptr,
                     threads);
        } else if (op == "BatchNormalization") {
            const Value &x = in(0);
            const double eps = node.attrs().get_float("epsilon", 1e-5f);
            y = x;
            const std::int64_t c = x.shape[1];
            const std::int64_t plane = numel(x.shape) / (x.shape[0] * c);
            for (std::int64_t b = 0; b < x.shape[0]; ++b) {
                for (std::int64_t ch = 0; ch < c; ++ch) {
                    const double scale = in(1).data[ch] /
                                         std::sqrt(in(4).data[ch] + eps);
                    const double mean = in(3).data[ch];
                    const double beta = in(2).data[ch];
                    double *p = y.data.data() + (b * c + ch) * plane;
                    for (std::int64_t i = 0; i < plane; ++i)
                        p[i] = (p[i] - mean) * scale + beta;
                }
            }
        } else if (op == "Relu") {
            y = in(0);
            for (double &v : y.data)
                v = v > 0 ? v : 0;
        } else if (op == "Add") {
            const Value &a = in(0), &b = in(1);
            if (a.shape != b.shape)
                fail(node, "broadcasting is not modelled");
            y = a;
            for (std::size_t i = 0; i < y.data.size(); ++i)
                y.data[i] += b.data[i];
        } else if (op == "MaxPool" || op == "AveragePool") {
            y = pool(node, in(0), op == "MaxPool");
        } else if (op == "GlobalAveragePool") {
            const Value &x = in(0);
            const std::int64_t planes = x.shape[0] * x.shape[1];
            const std::int64_t area = numel(x.shape) / planes;
            y.shape = {x.shape[0], x.shape[1], 1, 1};
            y.data.resize(static_cast<std::size_t>(planes));
            for (std::int64_t p = 0; p < planes; ++p) {
                double sum = 0;
                for (std::int64_t i = 0; i < area; ++i)
                    sum += x.data[p * area + i];
                y.data[p] = sum / double(area);
            }
        } else if (op == "Flatten") {
            y = in(0);
            const std::int64_t axis = norm_axis(
                node, node.attrs().get_int("axis", 1), y.shape.size());
            std::int64_t outer = 1;
            for (std::int64_t d = 0; d < axis; ++d)
                outer *= y.shape[d];
            y.shape = {outer, numel(y.shape) / outer};
        } else if (op == "Gemm") {
            y = gemm(node, in(0), in(1), node.has_input(2) ? &in(2) : nullptr);
        } else if (op == "Softmax") {
            y = softmax(node, in(0));
        } else if (op == "Concat") {
            std::vector<const Value *> xs;
            for (std::size_t i = 0; i < node.inputs().size(); ++i)
                xs.push_back(&in(i));
            y = concat(node, xs);
        } else {
            fail(node, "op not covered by the reference interpreter");
        }
        for (const std::string &name : node.inputs())
            if (--uses[name] == 0)
                values.erase(name);
        values[node.output(0)] = std::move(y);
    }
    return values.at(output_name).data;
}

} // namespace perfbench
