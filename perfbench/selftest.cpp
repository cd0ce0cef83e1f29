/**
 * @file
 * The benchmark's own tests (perfbench --selftest).
 *
 *  - Negative controls: every output check passes on a correct output
 *    and fails on a corrupted one — a perturbed element, a swapped
 *    top-1, a one-ulp change, a dropped response, and a 1% error on a
 *    typical probability of a 1000-class output.
 *  - The FLOP and byte model against hand-computed values for a 3x3
 *    conv, a depthwise conv and an FC layer, read off compiled plans.
 *  - The float64 interpreter against hand-computed outputs of a tiny
 *    conv + pool + FC graph, and against the engine on multi-channel
 *    padded, strided, dilated and grouped convolutions.
 */
#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "models/builder.hpp"
#include "models/model_zoo.hpp"

namespace perfbench {

namespace {

using orpheus::Engine;
using orpheus::Graph;
using orpheus::GraphBuilder;
using orpheus::Shape;
using orpheus::Tensor;

int g_failures = 0;

void
expect(bool condition, const std::string &what)
{
    std::printf("  [%s] %s\n", condition ? "ok" : "FAIL", what.c_str());
    if (!condition)
        ++g_failures;
}

/** True when @p check passes on @p good and fails on @p bad. */
void
negative_control(const std::string &what,
                 const std::function<bool(const Tensor &, Failures &)> &check,
                 const Tensor &good, const Tensor &bad)
{
    Failures f;
    expect(check(good, f) && f.empty(), what + ": passes on the real output");
    Failures g;
    expect(!check(bad, g) && !g.empty(),
           what + ": fails on the corrupted output" +
               (g.empty() ? "" : " (" + g.front() + ")"));
}

Tensor
with(const Tensor &t, const std::function<void(float *)> &edit)
{
    Tensor copy = t.clone();
    edit(copy.data<float>());
    return copy;
}

void
output_checks()
{
    std::printf("negative controls (wrn-40-2 against its float64 "
                "reference):\n");
    const Graph zoo = orpheus::models::wrn_40_2();
    const Tensor input = seeded_input(zoo.inputs().front().shape, 7);
    Engine engine{Graph(zoo)};
    const Tensor out =
        only_output(engine.run({{zoo.inputs().front().name, input}}));
    const std::vector<double> ref = reference_run(zoo, input, 1);
    const std::size_t top = argmax(out);
    const std::size_t other = (top + 1) % static_cast<std::size_t>(out.numel());

    const Tensor perturbed = with(out, [&](float *p) { p[other] += 1e-3f; });
    const Tensor swapped =
        with(out, [&](float *p) { std::swap(p[top], p[other]); });
    const Tensor one_ulp = with(out, [&](float *p) {
        p[other] = std::nextafter(p[other], 2.0f);
    });

    const auto close = [&](const Tensor &t, Failures &f) {
        return check_close_to_reference("fp32", t, ref, f);
    };
    const auto top1 = [&](const Tensor &t, Failures &f) {
        return check_top1("top-1", t, ref, f);
    };
    const auto rows = [&](const Tensor &t, Failures &f) {
        return check_softmax_rows("softmax", t, f);
    };
    const auto bitwise = [&](const Tensor &t, Failures &f) {
        return check_bitwise("1t vs mt", out, t, f);
    };
    negative_control("float64 reference, perturbed element", close, out,
                     perturbed);
    negative_control("float64 reference, swapped top-1", close, out, swapped);
    negative_control("top-1 (fp32 and int8), swapped top-1", top1, out,
                     swapped);
    negative_control("softmax rows sum to 1, perturbed element", rows, out,
                     perturbed);
    negative_control("bitwise equality across threads, one ulp", bitwise, out,
                     one_ulp);

    // Serving: 16 responses against their expected outputs.
    std::vector<Tensor> expected = {out, perturbed};
    std::vector<ServedResponse> responses;
    for (std::size_t i = 0; i < 16; ++i)
        responses.push_back(ServedResponse{true, i % 2, expected[i % 2]});
    Failures f;
    expect(check_responses(16, responses, expected, f),
           "serve responses: pass when complete and equal");
    std::vector<ServedResponse> dropped(responses.begin(),
                                        responses.end() - 1);
    f.clear();
    expect(!check_responses(16, dropped, expected, f),
           "serve responses: fail on a dropped response");
    std::vector<ServedResponse> wrong = responses;
    wrong[3].output = one_ulp;
    f.clear();
    expect(!check_responses(16, wrong, expected, f),
           "serve responses: fail on a response one ulp off");
    std::vector<ServedResponse> mixed = responses;
    mixed[4].input_index = 1; // output of input 0 filed under input 1
    f.clear();
    expect(!check_responses(16, mixed, expected, f),
           "serve responses: fail on a response for another input");
}

/**
 * A 1000-class output, where a typical probability is about 1e-3: an
 * error of 1% on one such probability is far below 1e-4 in absolute
 * terms and must still fail the reference check.
 */
void
thousand_class_check()
{
    std::printf("negative control (mobilenet-v1, 1000 classes):\n");
    const Graph zoo = orpheus::models::by_name("mobilenet-v1");
    const Tensor input = seeded_input(zoo.inputs().front().shape, 7);
    Engine engine{Graph(zoo)};
    const Tensor out =
        only_output(engine.run({{zoo.inputs().front().name, input}}));
    const std::vector<double> ref =
        reference_run(zoo, input, reference_threads());
    // The class whose probability is nearest to 1/1000.
    std::size_t typical = 0;
    for (std::size_t i = 1; i < ref.size(); ++i)
        if (std::fabs(std::log(ref[i] * 1e3)) <
            std::fabs(std::log(ref[typical] * 1e3)))
            typical = i;
    const Tensor perturbed =
        with(out, [&](float *p) { p[typical] *= 1.01f; });
    const double shift = std::fabs(double(perturbed.data<float>()[typical]) -
                                   double(out.data<float>()[typical]));
    expect(shift < 1e-4, "the 1% perturbation of p=" +
                             std::to_string(ref[typical]) + " moves it by " +
                             std::to_string(shift) + " < 1e-4");
    negative_control(
        "float64 reference, 1% off one typical probability",
        [&](const Tensor &t, Failures &f) {
            return check_close_to_reference("fp32", t, ref, f);
        },
        out, perturbed);
}

/** The single step of @p op_type in @p engine's plan. */
const orpheus::PlanStep *
find_step(const Engine &engine, const std::string &op_type)
{
    const orpheus::PlanStep *found = nullptr;
    for (const orpheus::PlanStep &s : engine.steps()) {
        if (s.op_type == op_type) {
            if (found != nullptr)
                return nullptr;
            found = &s;
        }
    }
    return found;
}

void
cost_case(const std::string &what, Graph graph, const std::string &op_type,
          OpClass op_class, double flops, double bytes)
{
    Engine engine(std::move(graph));
    const orpheus::PlanStep *step = find_step(engine, op_type);
    expect(step != nullptr, what + ": plan has one " + op_type + " step");
    if (step == nullptr)
        return;
    const StepCost c = step_cost(*step);
    char line[200];
    std::snprintf(line, sizeof line,
                  "%s: class %s, %.0f FLOPs (want %.0f), %.0f bytes "
                  "(want %.0f)",
                  what.c_str(), op_class_name(c.op_class), c.flops, flops,
                  c.bytes, bytes);
    expect(c.op_class == op_class && c.flops == flops && c.bytes == bytes,
           line);
}

void
cost_model_checks()
{
    std::printf("FLOP and byte model:\n");
    {
        // 3x3 conv, 16 -> 32 channels, 8x8, pad 1, with bias.
        // FLOPs = 2 * 32*8*8 outputs * 16*3*3 = 589,824
        // bytes = 4 * (16*64 in + 32*16*9 weights + 32 bias + 32*64 out)
        //       = 4 * 7712 = 30,848
        GraphBuilder b("conv3x3");
        const std::string x = b.input("x", Shape({1, 16, 8, 8}));
        b.output(b.conv_k(x, 32, 3, 1, 1, 1, true));
        cost_case("3x3 conv", b.take(), "Conv", OpClass::kConv, 589824,
                  30848);
    }
    {
        // Depthwise 3x3, 32 channels, 8x8, pad 1, with bias.
        // FLOPs = 2 * 32*64 outputs * 1*3*3 = 36,864
        // bytes = 4 * (2048 in + 288 weights + 32 bias + 2048 out) = 17,664
        GraphBuilder b("depthwise");
        const std::string x = b.input("x", Shape({1, 32, 8, 8}));
        b.output(b.conv_k(x, 32, 3, 1, 1, 32, true));
        cost_case("depthwise 3x3 conv", b.take(), "Conv", OpClass::kDepthwise,
                  36864, 17664);
    }
    {
        // FC 1024 -> 1000 at batch 1 (Gemm, transB=1, bias).
        // FLOPs = 2 * 1 * 1000 * 1024 = 2,048,000
        // bytes = 4 * (1024 in + 1,024,000 weights + 1000 bias + 1000 out)
        //       = 4,108,096
        GraphBuilder b("fc");
        const std::string x = b.input("x", Shape({1, 1024}));
        b.output(b.dense(x, 1000));
        cost_case("FC 1024x1000", b.take(), "Gemm", OpClass::kGemm, 2048000,
                  4108096);
    }
}

void
reference_checks()
{
    std::printf("float64 interpreter:\n");
    // 1x1x3x3 input 1..9, a 2x2 conv of ones (stride 1, no pad), a 2x2
    // average pool and an FC layer scaled to 0.5: conv gives
    // [12 16; 24 28], the pool their mean 20, the FC 0.5*20 + bias.
    Graph g("tiny");
    g.add_input("x", Shape({1, 1, 3, 3}));
    g.add_initializer("w", Tensor::from_values(Shape({1, 1, 2, 2}),
                                               {1, 1, 1, 1}));
    g.add_initializer("fw", Tensor::from_values(Shape({2, 1}), {0.5f, -1}));
    g.add_initializer("fb", Tensor::from_values(Shape({2}), {1, 0}));
    orpheus::AttributeMap conv_attrs;
    conv_attrs.set("kernel_shape", std::vector<std::int64_t>{2, 2});
    g.add_node("Conv", {"x", "w"}, {"c"}, conv_attrs);
    orpheus::AttributeMap pool_attrs;
    pool_attrs.set("kernel_shape", std::vector<std::int64_t>{2, 2});
    g.add_node("AveragePool", {"c"}, {"p"}, pool_attrs);
    g.add_node("Flatten", {"p"}, {"f"});
    orpheus::AttributeMap fc_attrs;
    fc_attrs.set("transB", std::int64_t{1});
    g.add_node("Gemm", {"f", "fw", "fb"}, {"y"}, fc_attrs);
    g.add_output("y");
    const Tensor x = Tensor::from_values(Shape({1, 1, 3, 3}),
                                         {1, 2, 3, 4, 5, 6, 7, 8, 9});
    const std::vector<double> y = reference_run(g, x, 1);
    expect(y.size() == 2 && y[0] == 11.0 && y[1] == -20.0,
           "conv + average pool + FC gives [11, -20]");

    // Padded, strided, dilated and grouped convolutions over several
    // channels on 3 threads, against the engine's own kernels.
    struct ConvCase {
        const char *what;
        std::int64_t group, stride, pad, dilation;
    };
    for (const ConvCase &c : {ConvCase{"3x3 conv, pad 1", 1, 1, 1, 1},
                              ConvCase{"3x3 conv, stride 2, pad 1", 1, 2, 1, 1},
                              ConvCase{"3x3 conv, dilation 2, pad 2", 1, 1, 2, 2},
                              ConvCase{"3x3 conv, 2 groups, stride 2", 2, 2, 1, 1},
                              ConvCase{"3x3 depthwise, pad 1", 8, 1, 1, 1}}) {
        Graph cg("conv");
        cg.add_input("x", Shape({2, 8, 9, 7}));
        const std::int64_t cin = 8 / c.group;
        cg.add_initializer("w", seeded_input(Shape({16, cin, 3, 3}), 11));
        orpheus::AttributeMap a;
        a.set("kernel_shape", std::vector<std::int64_t>{3, 3});
        a.set("strides", std::vector<std::int64_t>{c.stride, c.stride});
        a.set("pads", std::vector<std::int64_t>{c.pad, c.pad, c.pad, c.pad});
        a.set("dilations",
              std::vector<std::int64_t>{c.dilation, c.dilation});
        a.set("group", c.group);
        cg.add_node("Conv", {"x", "w"}, {"y"}, a);
        cg.add_output("y");
        const Tensor cx = seeded_input(Shape({2, 8, 9, 7}), 12);
        const std::vector<double> want = reference_run(cg, cx, 3);
        Engine engine{Graph(cg)};
        const Tensor got = only_output(engine.run({{"x", cx}}));
        double worst = want.size() == std::size_t(got.numel()) ? 0 : INFINITY;
        for (std::size_t i = 0; worst < INFINITY && i < want.size(); ++i)
            worst = std::max(worst, std::fabs(got.data<float>()[i] - want[i]));
        expect(worst <= 1e-5, std::string(c.what) +
                                  ": interpreter and engine agree (max "
                                  "difference " + std::to_string(worst) + ")");
    }
}

} // namespace

int
run_selftest()
{
    output_checks();
    thousand_class_check();
    cost_model_checks();
    reference_checks();
    std::printf("%s: %d self-test failure(s)\n",
                g_failures == 0 ? "PASS" : "FAIL", g_failures);
    return g_failures == 0 ? 0 : 1;
}

} // namespace perfbench
