#include "machine/builders.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "support/logging.hpp"

namespace cs {

namespace {

/** Kind tags used while laying out the unit mix. */
struct UnitSpec
{
    std::string name;
    OpClass cls;
    int numInputs;
};

/** Expand a mix into the concrete unit list, in the paper's order. */
std::vector<UnitSpec>
expandMix(const FuMix &mix)
{
    std::vector<UnitSpec> specs;
    for (int i = 0; i < mix.adders; ++i)
        specs.push_back({"add" + std::to_string(i), OpClass::Add, 2});
    for (int i = 0; i < mix.multipliers; ++i)
        specs.push_back({"mul" + std::to_string(i), OpClass::Multiply, 2});
    for (int i = 0; i < mix.dividers; ++i)
        specs.push_back({"div" + std::to_string(i), OpClass::Divide, 2});
    for (int i = 0; i < mix.permuters; ++i)
        specs.push_back({"pu" + std::to_string(i), OpClass::Permute, 2});
    for (int i = 0; i < mix.scratchpads; ++i)
        specs.push_back({"sp" + std::to_string(i), OpClass::Scratch, 2});
    for (int i = 0; i < mix.loadStores; ++i)
        specs.push_back({"ls" + std::to_string(i), OpClass::LoadStore, 2});
    return specs;
}

void
applyUnitLatency(MachineBuilder &builder, bool unit_latency)
{
    if (!unit_latency)
        return;
    for (std::size_t i = 0; i < kNumOpcodes; ++i)
        builder.setLatency(static_cast<Opcode>(i), 1);
}

} // namespace

FuMix
FuMix::scaled(int factor) const
{
    CS_ASSERT(factor >= 1, "scale factor must be positive");
    FuMix out = *this;
    out.adders *= factor;
    out.multipliers *= factor;
    out.dividers *= factor;
    out.permuters *= factor;
    out.scratchpads *= factor;
    out.loadStores *= factor;
    return out;
}

Machine
makeCentral(const StdMachineConfig &config)
{
    MachineBuilder builder("central");
    applyUnitLatency(builder, config.unitLatency);

    RegFileId rf = builder.addRegFile("CRF", config.totalRegisters);
    for (const UnitSpec &spec : expandMix(config.mix)) {
        // In a central machine copies are never required; the copy
        // capability is still present (on everything but the
        // scratchpad) so the one scheduler runs unchanged.
        FuncUnitId fu =
            spec.cls == OpClass::Scratch
                ? builder.addFuncUnit(spec.name, {spec.cls},
                                      spec.numInputs)
                : builder.addFuncUnit(spec.name,
                                      {spec.cls, OpClass::CopyCls},
                                      spec.numInputs);
        builder.connectWriteDirect(builder.output(fu), rf);
        for (int s = 0; s < spec.numInputs; ++s)
            builder.connectReadDirect(rf, builder.input(fu, s));
    }
    return builder.build();
}

Machine
makeClustered(const StdMachineConfig &config, int numClusters)
{
    CS_ASSERT(numClusters >= 2, "clustered machine needs >= 2 clusters");
    MachineBuilder builder("clustered" + std::to_string(numClusters));
    applyUnitLatency(builder, config.unitLatency);

    std::vector<UnitSpec> specs = expandMix(config.mix);

    // Assign units to clusters. For the paper's standard 16-unit mix
    // with four clusters, reproduce the Figure 26 division:
    //   C0 {add,add,mul,ls} C1 {add,mul,div,ls}
    //   C2 {add,add,mul,ls} C3 {add,pu,sp,ls};
    // the two-cluster machine merges C0+C1 and C2+C3. Any other mix is
    // distributed round-robin per unit type.
    std::vector<int> cluster_of(specs.size());
    FuMix std_mix;
    bool standard = config.mix.total() == std_mix.total() &&
                    config.mix.adders == std_mix.adders &&
                    config.mix.multipliers == std_mix.multipliers &&
                    config.mix.loadStores == std_mix.loadStores &&
                    (numClusters == 2 || numClusters == 4);
    if (standard) {
        // Unit order from expandMix: add0-5, mul0-2, div0, pu0, sp0,
        // ls0-3.
        static const int four_way[16] = {
            0, 0, 1, 2, 2, 3,  // adders
            0, 1, 2,           // multipliers
            1,                 // divider
            3,                 // permuter
            3,                 // scratchpad
            0, 1, 2, 3,        // load/stores
        };
        for (std::size_t i = 0; i < specs.size(); ++i) {
            cluster_of[i] = numClusters == 4 ? four_way[i]
                                             : four_way[i] / 2;
        }
    } else {
        std::vector<int> next_per_class(kNumOpClasses, 0);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            int &next =
                next_per_class[static_cast<std::size_t>(specs[i].cls)];
            cluster_of[i] = next % numClusters;
            ++next;
        }
    }

    int regs_per_cluster =
        std::max(4, config.totalRegisters / numClusters);
    std::vector<RegFileId> cluster_rf;
    for (int c = 0; c < numClusters; ++c) {
        cluster_rf.push_back(builder.addRegFile(
            "RF" + std::to_string(c), regs_per_cluster));
    }

    // Standard units: dedicated ports on the home cluster file only.
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const UnitSpec &spec = specs[i];
        RegFileId rf = cluster_rf[cluster_of[i]];
        FuncUnitId fu =
            builder.addFuncUnit(spec.name, {spec.cls}, spec.numInputs);
        builder.connectWriteDirect(builder.output(fu), rf);
        for (int s = 0; s < spec.numInputs; ++s)
            builder.connectReadDirect(rf, builder.input(fu, s));
    }

    // One copy-in write port per cluster file, drivable by every other
    // cluster's global bus; one copy unit per cluster driving its own
    // global bus.
    std::vector<WritePortId> copy_in;
    for (int c = 0; c < numClusters; ++c)
        copy_in.push_back(builder.addWritePort(cluster_rf[c]));

    for (int c = 0; c < numClusters; ++c) {
        BusId gbus = builder.addBus("gbus" + std::to_string(c));
        FuncUnitId cu = builder.addFuncUnit(
            "copy" + std::to_string(c), {OpClass::CopyCls}, 1);
        builder.connectReadDirect(cluster_rf[c], builder.input(cu, 0));
        builder.connectOutputToBus(builder.output(cu), gbus);
        for (int d = 0; d < numClusters; ++d) {
            if (d != c)
                builder.connectBusToWritePort(gbus, copy_in[d]);
        }
    }

    return builder.build();
}

Machine
makeDistributed(const StdMachineConfig &config)
{
    MachineBuilder builder("distributed");
    applyUnitLatency(builder, config.unitLatency);

    std::vector<UnitSpec> specs = expandMix(config.mix);
    int total_inputs = 0;
    for (const UnitSpec &spec : specs)
        total_inputs += spec.numInputs;
    int regs_per_file =
        std::max(4, config.totalRegisters / std::max(1, total_inputs));

    std::vector<BusId> gbus;
    for (int b = 0; b < config.numGlobalBuses; ++b)
        gbus.push_back(builder.addBus("gbus" + std::to_string(b)));

    for (const UnitSpec &spec : specs) {
        // All units except the scratchpad implement copy (Section 5).
        FuncUnitId fu =
            spec.cls == OpClass::Scratch
                ? builder.addFuncUnit(spec.name, {spec.cls},
                                      spec.numInputs)
                : builder.addFuncUnit(spec.name,
                                      {spec.cls, OpClass::CopyCls},
                                      spec.numInputs);
        // Output drives any one of the global buses.
        for (BusId bus : gbus)
            builder.connectOutputToBus(builder.output(fu), bus);
        // A dedicated register file in front of every input: one read
        // port wired straight to the input, one shared write port
        // drivable by every global bus.
        for (int s = 0; s < spec.numInputs; ++s) {
            RegFileId rf = builder.addRegFile(
                spec.name + ".rf" + std::to_string(s), regs_per_file);
            builder.connectReadDirect(rf, builder.input(fu, s));
            WritePortId wp = builder.addWritePort(rf);
            for (BusId bus : gbus)
                builder.connectBusToWritePort(bus, wp);
        }
    }

    return builder.build();
}

std::optional<Machine>
makeStdMachine(std::string_view style, const StdMachineConfig &config)
{
    if (style == "central")
        return makeCentral(config);
    if (style == "clustered2")
        return makeClustered(config, 2);
    if (style == "clustered4")
        return makeClustered(config, 4);
    if (style == "distributed")
        return makeDistributed(config);
    return std::nullopt;
}

Machine
makeFigure5Machine()
{
    MachineBuilder builder("figure5");
    // The paper's illustration assumes unit latency throughout.
    for (std::size_t i = 0; i < kNumOpcodes; ++i)
        builder.setLatency(static_cast<Opcode>(i), 1);

    RegFileId rf_l = builder.addRegFile("RFL", 16);
    RegFileId rf_c = builder.addRegFile("RFC", 16);
    RegFileId rf_r = builder.addRegFile("RFR", 16);

    FuncUnitId add0 =
        builder.addFuncUnit("ADD0", {OpClass::Add, OpClass::CopyCls}, 2);
    FuncUnitId ls = builder.addFuncUnit(
        "LS", {OpClass::LoadStore, OpClass::CopyCls}, 2);
    FuncUnitId add1 =
        builder.addFuncUnit("ADD1", {OpClass::Add, OpClass::CopyCls}, 2);

    // Reads: each unit reads its own file through dedicated ports.
    for (int s = 0; s < 2; ++s) {
        builder.connectReadDirect(rf_l, builder.input(add0, s));
        builder.connectReadDirect(rf_c, builder.input(ls, s));
        builder.connectReadDirect(rf_r, builder.input(add1, s));
    }

    // Two shared buses. busX: ADD0 and LS outputs -> RFL and the
    // center file. busY: LS and ADD1 outputs -> RFR and the center
    // file. The center file's single write port is drivable by either
    // bus ("both of the shared buses can drive the shared write port of
    // the center register file").
    BusId bus_x = builder.addBus("busX");
    BusId bus_y = builder.addBus("busY");
    WritePortId wp_l = builder.addWritePort(rf_l);
    WritePortId wp_c = builder.addWritePort(rf_c);
    WritePortId wp_r = builder.addWritePort(rf_r);

    builder.connectOutputToBus(builder.output(add0), bus_x);
    builder.connectOutputToBus(builder.output(ls), bus_x);
    builder.connectOutputToBus(builder.output(ls), bus_y);
    builder.connectOutputToBus(builder.output(add1), bus_y);

    builder.connectBusToWritePort(bus_x, wp_l);
    builder.connectBusToWritePort(bus_x, wp_c);
    builder.connectBusToWritePort(bus_y, wp_r);
    builder.connectBusToWritePort(bus_y, wp_c);

    return builder.build();
}

} // namespace cs
