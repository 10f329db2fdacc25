/**
 * @file
 * Unit tests for the IR: builder, kernel container, copy insertion
 * round-trips, verifier findings, and dependence-graph analyses.
 */

#include <gtest/gtest.h>

#include "ir/builder.hpp"
#include "ir/ddg.hpp"
#include "ir/verifier.hpp"
#include "machine/builders.hpp"
#include "support/logging.hpp"

namespace cs {
namespace {

Kernel
chainKernel()
{
    KernelBuilder b("chain");
    b.block("body");
    Val x = b.load(100, 0, "x");
    Val y = b.iadd(x, 1, "y");
    Val z = b.imul(y, y, "z");
    b.store(200, z);
    return b.take();
}

TEST(Builder, ProducesExpectedOps)
{
    Kernel k = chainKernel();
    EXPECT_EQ(k.numBlocks(), 1u);
    EXPECT_EQ(k.numOperations(), 4u);
    EXPECT_EQ(k.numValues(), 3u);
    const Operation &add = k.operation(OperationId(1));
    EXPECT_EQ(add.opcode, Opcode::IAdd);
    ASSERT_EQ(add.operands.size(), 2u);
    EXPECT_TRUE(add.operands[0].isValue());
    EXPECT_TRUE(add.operands[1].isImmediate());
}

TEST(Builder, UseListsTrackConsumers)
{
    Kernel k = chainKernel();
    const Operation &mul = k.operation(OperationId(2));
    // z = y * y: y has two uses in the mul plus none elsewhere.
    ValueId y = mul.operands[0].value;
    EXPECT_EQ(k.value(y).uses.size(), 2u);
    ValueId z = mul.result;
    EXPECT_EQ(k.value(z).uses.size(), 1u);
}

TEST(Builder, ArityChecked)
{
    KernelBuilder b("bad");
    b.block("body");
    EXPECT_THROW(b.emit(Opcode::IAdd, {Arg(1)}), PanicError);
}

TEST(Builder, LoopCarriedDistance)
{
    KernelBuilder b("acc");
    b.block("loop", true);
    Val x = b.load(100, 1, "x");
    Val acc = b.fadd(x, 0.0, "acc0");
    Val sum = b.fadd(acc.at(1), x, "sum");
    (void)sum;
    Kernel k = b.take();
    const Operation &op = k.operation(OperationId(2));
    EXPECT_EQ(op.operands[0].distance, 1);
    EXPECT_EQ(op.operands[1].distance, 0);
}

TEST(Kernel, InsertCopyRetargetsUses)
{
    Kernel k = chainKernel();
    const Operation &mul = k.operation(OperationId(2));
    ValueId y = mul.operands[0].value;
    OperationId copy =
        k.insertCopy(BlockId(0), y, {{OperationId(2), 0}});
    EXPECT_EQ(k.numOperations(), 5u);
    // Slot 0 now reads the copy, slot 1 still reads y.
    const Operation &mul2 = k.operation(OperationId(2));
    EXPECT_NE(mul2.operands[0].value, y);
    EXPECT_EQ(mul2.operands[1].value, y);
    EXPECT_EQ(k.value(y).uses.size(), 2u); // copy + mul slot 1
    EXPECT_TRUE(verifyKernel(k).empty());
    (void)copy;
}

TEST(Kernel, RemoveLastCopyRoundTrip)
{
    Kernel k = chainKernel();
    ValueId y = k.operation(OperationId(2)).operands[0].value;
    std::string before = k.toString();
    OperationId copy =
        k.insertCopy(BlockId(0), y, {{OperationId(2), 0}});
    k.removeLastCopy(copy);
    EXPECT_EQ(k.toString(), before);
    EXPECT_TRUE(verifyKernel(k).empty());
}

TEST(Kernel, HistogramCountsClasses)
{
    Kernel k = chainKernel();
    auto h = k.opcodeClassHistogram();
    EXPECT_EQ(h[static_cast<std::size_t>(OpClass::Add)], 1u);
    EXPECT_EQ(h[static_cast<std::size_t>(OpClass::Multiply)], 1u);
    EXPECT_EQ(h[static_cast<std::size_t>(OpClass::LoadStore)], 2u);
}

TEST(Verifier, AcceptsGoodKernel)
{
    Kernel k = chainKernel();
    EXPECT_TRUE(verifyKernel(k).empty());
}

TEST(Verifier, CatchesCarriedOperandOutsideLoop)
{
    KernelBuilder b("bad");
    b.block("straight", false);
    Val x = b.load(100, 0, "x");
    b.iadd(x.at(1), 1, "y");
    Kernel k = b.take();
    auto issues = verifyKernel(k);
    ASSERT_FALSE(issues.empty());
    EXPECT_NE(issues[0].message.find("loop-carried"),
              std::string::npos);
}

TEST(Verifier, ExecutabilityCheck)
{
    KernelBuilder b("div");
    b.block("body");
    Val x = b.load(100, 0, "x");
    b.fdiv(x, 2.0, "y");
    Kernel k = b.take();

    std::string why;
    EXPECT_TRUE(kernelExecutableOn(k, makeCentral(), &why)) << why;
    // The Figure-5 toy machine has no divider.
    EXPECT_FALSE(kernelExecutableOn(k, makeFigure5Machine(), &why));
    EXPECT_NE(why.find("divide"), std::string::npos);
}

TEST(Ddg, AsapAndHeights)
{
    Machine m = makeCentral(); // load 2, iadd 1, imul 2, store 1
    Kernel k = chainKernel();
    Ddg ddg(k, BlockId(0), m);
    ASSERT_EQ(ddg.numOps(), 4u);
    EXPECT_EQ(ddg.asap(0), 0); // load
    EXPECT_EQ(ddg.asap(1), 2); // iadd after load
    EXPECT_EQ(ddg.asap(2), 3); // imul
    EXPECT_EQ(ddg.asap(3), 5); // store
    EXPECT_EQ(ddg.criticalPathLength(), 6);
    // Heights: load at the top of the whole chain.
    EXPECT_EQ(ddg.height(0), 6);
    EXPECT_EQ(ddg.height(3), 1);
}

TEST(Ddg, TopoOrderRespectsDeps)
{
    Kernel k = chainKernel();
    Machine m = makeCentral();
    Ddg ddg(k, BlockId(0), m);
    const auto &topo = ddg.topoOrder();
    std::vector<int> position(topo.size());
    for (std::size_t i = 0; i < topo.size(); ++i)
        position[topo[i]] = static_cast<int>(i);
    for (const DepEdge &edge : ddg.edges()) {
        if (edge.distance == 0) {
            EXPECT_LT(position[ddg.indexOf(edge.from)],
                      position[ddg.indexOf(edge.to)]);
        }
    }
}

TEST(Ddg, MemoryOrderingEdges)
{
    KernelBuilder b("mem");
    b.block("body");
    Val x = b.load(100, 0, "x");
    b.store(100, x);
    Val y = b.load(100, 0, "y");
    (void)y;
    Kernel k = b.take();
    // Same alias class for all three.
    const_cast<Operation &>(k.operation(OperationId(0))).aliasClass = 1;
    const_cast<Operation &>(k.operation(OperationId(1))).aliasClass = 1;
    const_cast<Operation &>(k.operation(OperationId(2))).aliasClass = 1;
    Machine m = makeCentral();
    Ddg ddg(k, BlockId(0), m);
    int memory_edges = 0;
    for (const DepEdge &edge : ddg.edges()) {
        if (edge.kind == DepEdge::Kind::Memory)
            ++memory_edges;
    }
    // load->store (WAR) and store->load (RAW); no load-load edge.
    EXPECT_EQ(memory_edges, 2);
}

TEST(Ddg, ResMiiFromUnitCounts)
{
    // Six multiplies on three multipliers: ResMII == 2.
    KernelBuilder b("mulheavy");
    b.block("loop", true);
    for (int i = 0; i < 6; ++i) {
        Val x = b.load(100 + i, 8);
        b.imul(x, 3);
    }
    Kernel k = b.take();
    Machine m = makeCentral();
    Ddg ddg(k, BlockId(0), m);
    // 6 loads on 4 ls units: ceil(6/4) = 2; 6 muls on 3: 2.
    EXPECT_EQ(ddg.resMii(), 2);
}

TEST(Ddg, RecMiiFromRecurrence)
{
    // sum = fadd(x, sum@1): recurrence latency 2, distance 1 -> 2.
    KernelBuilder b("acc");
    b.block("loop", true);
    Val x = b.load(100, 1, "x");
    b.emit(Opcode::FAdd, {Arg(x), Arg(x)}, "sum");
    // Make sum depend on itself across one iteration.
    Kernel k = b.take();
    const_cast<Operation &>(k.operation(OperationId(1))).operands[1] =
        Operand::fromValue(k.operation(OperationId(1)).result, 1);
    const_cast<Value &>(k.value(k.operation(OperationId(1)).result))
        .uses.emplace_back(OperationId(1), 1);
    Machine m = makeCentral();
    Ddg ddg(k, BlockId(0), m);
    EXPECT_EQ(ddg.recMii(), m.latency(Opcode::FAdd));
}

TEST(Ddg, RecMiiOneWithoutCarriedEdges)
{
    Kernel k = chainKernel();
    Machine m = makeCentral();
    Ddg ddg(k, BlockId(0), m);
    EXPECT_EQ(ddg.recMii(), 1);
}

} // namespace
} // namespace cs
