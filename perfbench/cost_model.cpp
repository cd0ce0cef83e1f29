/**
 * @file
 * The FLOP and byte model of a plan step.
 *
 * Work comes from the step's tensors as the plan laid them out: the
 * kernel size and channel grouping of a convolution are read off its
 * weight tensor, the reduction length of a Gemm off its operands.
 * Bytes are the compulsory traffic — each input, weight and output
 * read or written once at its own element size — so they are a lower
 * bound computed from shapes, not a measurement of memory traffic.
 */
#include "bench.hpp"

namespace perfbench {

namespace {

double
bytes_of(const orpheus::Tensor *t)
{
    return t == nullptr ? 0.0 : static_cast<double>(t->byte_size());
}

double
io_bytes(const orpheus::PlanStep &step)
{
    double bytes = 0;
    for (const orpheus::Tensor *t : step.inputs)
        bytes += bytes_of(t);
    for (const orpheus::Tensor *t : step.outputs)
        bytes += bytes_of(t);
    return bytes;
}

/** 2 x output elements x (input channels per group x kernel area). */
double
conv_flops(const orpheus::Tensor &weight, const orpheus::Shape &output)
{
    const double per_output = static_cast<double>(weight.shape().dim(1)) *
                              weight.shape().dim(2) * weight.shape().dim(3);
    return 2.0 * static_cast<double>(output.numel()) * per_output;
}

bool
is_depthwise(const orpheus::Tensor &input, const orpheus::Tensor &weight)
{
    const std::int64_t channels = input.shape().dim(1);
    return weight.shape().dim(1) == 1 && channels > 1 &&
           weight.shape().dim(0) % channels == 0;
}

} // namespace

const char *
op_class_name(OpClass c)
{
    switch (c) {
    case OpClass::kConv: return "conv";
    case OpClass::kDepthwise: return "depthwise";
    case OpClass::kGemm: return "gemm";
    case OpClass::kActivation: return "activation";
    case OpClass::kPool: return "pool";
    case OpClass::kQConv: return "qconv";
    case OpClass::kQuantize: return "quantize";
    case OpClass::kOther: return "other";
    }
    return "other";
}

StepCost
step_cost(const orpheus::PlanStep &step)
{
    const std::string &op = step.op_type;
    StepCost cost;
    cost.bytes = io_bytes(step);
    if (op == "Conv") {
        const orpheus::Tensor &x = *step.inputs.at(0);
        const orpheus::Tensor &w = *step.inputs.at(1);
        cost.op_class = is_depthwise(x, w) ? OpClass::kDepthwise
                                           : OpClass::kConv;
        cost.flops = conv_flops(w, step.output_shape);
    } else if (op == "QLinearConv") {
        const orpheus::Tensor &w = *step.inputs.at(3);
        cost.op_class = OpClass::kQConv;
        cost.flops = conv_flops(w, step.output_shape);
    } else if (op == "Gemm" || op == "MatMul") {
        // A is M x K in either layout; M is the output's row count.
        const double m = static_cast<double>(step.output_shape.dim(0));
        const double n = static_cast<double>(step.output_shape.numel()) / m;
        const double k = static_cast<double>(step.inputs.at(0)->numel()) / m;
        cost.op_class = OpClass::kGemm;
        cost.flops = 2.0 * m * n * k;
    } else if (op == "Relu" || op == "LeakyRelu" || op == "Clip" ||
               op == "Sigmoid" || op == "Tanh") {
        cost.op_class = OpClass::kActivation;
    } else if (op == "MaxPool" || op == "AveragePool" ||
               op == "GlobalAveragePool" || op == "GlobalMaxPool") {
        cost.op_class = OpClass::kPool;
    } else if (op == "QuantizeLinear" || op == "DequantizeLinear") {
        cost.op_class = OpClass::kQuantize;
    }
    return cost;
}

} // namespace perfbench
