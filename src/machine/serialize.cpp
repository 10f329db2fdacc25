#include "machine/serialize.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "machine/builder.hpp"
#include "support/logging.hpp"

namespace cs {

namespace {

/// Upper bound on any serialized index or count; rejects hostile sizes
/// long before they could amplify into large allocations.
constexpr std::int64_t kMaxIndex = 1 << 20;

bool
opClassByName(std::string_view name, OpClass *out)
{
    for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        OpClass cls = static_cast<OpClass>(i);
        if (opClassName(cls) == name) {
            *out = cls;
            return true;
        }
    }
    return false;
}

/**
 * Everything the formats carry, in replay order, with indices still
 * unchecked. Both the text parser and the binary decoder fill one of
 * these; buildMachine() validates every cross-reference and replays it
 * through MachineBuilder.
 */
struct MachineDesc
{
    bool hasName = false;
    std::string name;

    struct Rf
    {
        std::string name;
        std::int64_t capacity = 0;
    };
    std::vector<Rf> regFiles;

    std::vector<std::string> buses;

    struct Fu
    {
        std::string name;
        std::vector<OpClass> classes;
        std::int64_t numInputs = 0;
        bool hasOutput = true;
    };
    std::vector<Fu> funcUnits;

    /** Owning register-file index per read/write port, in id order. */
    std::vector<std::int64_t> readPorts;
    std::vector<std::int64_t> writePorts;

    enum EdgeKind { OutToBuses, RpToBuses, BusToWps, BusToIns };
    struct Edge
    {
        EdgeKind kind = OutToBuses;
        std::int64_t from = 0;
        std::vector<std::int64_t> to;
    };
    std::vector<Edge> edges;

    /** (opcode index, cycles) overrides, applied in order. */
    std::vector<std::pair<std::int64_t, std::int64_t>> latencies;
};

/** Validate @p desc and replay it through MachineBuilder. */
bool
buildMachine(const MachineDesc &desc, std::optional<Machine> *out,
             std::string *error)
{
    auto fail = [&](const std::string &message) {
        *error = message;
        return false;
    };

    if (!desc.hasName)
        return fail("machine has no name directive");

    const std::int64_t numRf =
        static_cast<std::int64_t>(desc.regFiles.size());
    const std::int64_t numBus = static_cast<std::int64_t>(desc.buses.size());
    std::int64_t numInputs = 0;
    std::int64_t numOutputs = 0;
    for (const MachineDesc::Fu &fu : desc.funcUnits) {
        if (fu.numInputs < 0 || fu.numInputs > 1024)
            return fail("unit '" + fu.name + "' has bad input count");
        numInputs += fu.numInputs;
        numOutputs += fu.hasOutput ? 1 : 0;
    }
    for (const MachineDesc::Rf &rf : desc.regFiles) {
        if (rf.capacity < 1 || rf.capacity > kMaxIndex)
            return fail("register file '" + rf.name + "' has bad capacity");
    }
    auto checkIndex = [&](const char *what, std::int64_t v,
                          std::int64_t count) {
        if (v < 0 || v >= count) {
            *error = std::string(what) + " index " + std::to_string(v) +
                     " out of range (have " + std::to_string(count) + ")";
            return false;
        }
        return true;
    };
    for (std::int64_t rf : desc.readPorts)
        if (!checkIndex("read-port register file", rf, numRf))
            return false;
    for (std::int64_t rf : desc.writePorts)
        if (!checkIndex("write-port register file", rf, numRf))
            return false;
    const std::int64_t numRp =
        static_cast<std::int64_t>(desc.readPorts.size());
    const std::int64_t numWp =
        static_cast<std::int64_t>(desc.writePorts.size());
    for (const MachineDesc::Edge &edge : desc.edges) {
        switch (edge.kind) {
          case MachineDesc::OutToBuses:
            if (!checkIndex("output port", edge.from, numOutputs))
                return false;
            for (std::int64_t b : edge.to)
                if (!checkIndex("bus", b, numBus))
                    return false;
            break;
          case MachineDesc::RpToBuses:
            if (!checkIndex("read port", edge.from, numRp))
                return false;
            for (std::int64_t b : edge.to)
                if (!checkIndex("bus", b, numBus))
                    return false;
            break;
          case MachineDesc::BusToWps:
            if (!checkIndex("bus", edge.from, numBus))
                return false;
            for (std::int64_t w : edge.to)
                if (!checkIndex("write port", w, numWp))
                    return false;
            break;
          case MachineDesc::BusToIns:
            if (!checkIndex("bus", edge.from, numBus))
                return false;
            for (std::int64_t i : edge.to)
                if (!checkIndex("input port", i, numInputs))
                    return false;
            break;
        }
    }
    for (auto [op, cycles] : desc.latencies) {
        if (op < 0 || op >= static_cast<std::int64_t>(kNumOpcodes))
            return fail("bad opcode index " + std::to_string(op));
        if (cycles < 1 || cycles > kMaxIndex)
            return fail("bad latency " + std::to_string(cycles));
    }

    // Replay. All indices are now known in range, so the only remaining
    // failure mode is build()'s structural sanity check (every output
    // connected, every slot readable); catch it and report as a parse
    // error rather than crashing on a well-formed but bogus description.
    try {
        MachineBuilder builder(desc.name);
        for (const MachineDesc::Rf &rf : desc.regFiles)
            builder.addRegFile(rf.name, static_cast<int>(rf.capacity));
        for (const std::string &name : desc.buses)
            builder.addBus(name);
        for (const MachineDesc::Fu &fu : desc.funcUnits)
            builder.addFuncUnit(fu.name, fu.classes,
                                static_cast<int>(fu.numInputs),
                                fu.hasOutput);
        for (std::int64_t rf : desc.readPorts)
            builder.addReadPort(RegFileId(static_cast<std::uint32_t>(rf)));
        for (std::int64_t rf : desc.writePorts)
            builder.addWritePort(RegFileId(static_cast<std::uint32_t>(rf)));
        for (const MachineDesc::Edge &edge : desc.edges) {
            std::uint32_t from = static_cast<std::uint32_t>(edge.from);
            for (std::int64_t t : edge.to) {
                std::uint32_t to = static_cast<std::uint32_t>(t);
                switch (edge.kind) {
                  case MachineDesc::OutToBuses:
                    builder.connectOutputToBus(OutputPortId(from),
                                               BusId(to));
                    break;
                  case MachineDesc::RpToBuses:
                    builder.connectReadPortToBus(ReadPortId(from),
                                                 BusId(to));
                    break;
                  case MachineDesc::BusToWps:
                    builder.connectBusToWritePort(BusId(from),
                                                  WritePortId(to));
                    break;
                  case MachineDesc::BusToIns:
                    builder.connectBusToInput(BusId(from),
                                              InputPortId(to));
                    break;
                }
            }
        }
        for (auto [op, cycles] : desc.latencies)
            builder.setLatency(static_cast<Opcode>(op),
                               static_cast<int>(cycles));
        out->emplace(builder.build());
    } catch (const FatalError &e) {
        return fail(std::string("invalid machine: ") + e.what());
    } catch (const PanicError &e) {
        return fail(std::string("invalid machine: ") + e.what());
    }
    return true;
}

bool
parseIndexList(wire::TextScanner &scanner, const char *what,
               std::vector<std::int64_t> *out)
{
    if (!scanner.expect("["))
        return false;
    while (!scanner.accept("]")) {
        if (scanner.failed() || scanner.atEnd()) {
            scanner.fail("unterminated list");
            return false;
        }
        std::int64_t v = 0;
        if (!scanner.intInRange(what, 0, kMaxIndex, &v))
            return false;
        out->push_back(v);
    }
    return !scanner.failed();
}

bool
parseMachineDesc(wire::TextScanner &scanner, MachineDesc *desc)
{
    if (!scanner.expect("machine") || !scanner.expect("{"))
        return false;
    while (!scanner.accept("}")) {
        if (scanner.failed())
            return false;
        if (scanner.atEnd()) {
            scanner.fail("unterminated machine block");
            return false;
        }
        if (scanner.accept("name")) {
            if (!scanner.quoted(&desc->name))
                return false;
            desc->hasName = true;
        } else if (scanner.accept("regfile")) {
            MachineDesc::Rf rf;
            if (!scanner.quoted(&rf.name) ||
                !scanner.intInRange("capacity", 1, kMaxIndex,
                                    &rf.capacity)) {
                return false;
            }
            desc->regFiles.push_back(std::move(rf));
        } else if (scanner.accept("bus")) {
            std::string name;
            if (!scanner.quoted(&name))
                return false;
            desc->buses.push_back(std::move(name));
        } else if (scanner.accept("funcunit")) {
            MachineDesc::Fu fu;
            if (!scanner.quoted(&fu.name) || !scanner.expect("["))
                return false;
            while (!scanner.accept("]")) {
                if (scanner.failed() || scanner.atEnd()) {
                    scanner.fail("unterminated class list");
                    return false;
                }
                OpClass cls;
                std::string_view word = scanner.next();
                if (!opClassByName(word, &cls)) {
                    scanner.fail("unknown operation class '" +
                                 std::string(word) + "'");
                    return false;
                }
                fu.classes.push_back(cls);
            }
            if (!scanner.expect("inputs") ||
                !scanner.intInRange("input count", 0, 1024,
                                    &fu.numInputs)) {
                return false;
            }
            if (scanner.accept("output"))
                fu.hasOutput = true;
            else if (scanner.accept("nooutput"))
                fu.hasOutput = false;
            else {
                scanner.fail("expected 'output' or 'nooutput'");
                return false;
            }
            desc->funcUnits.push_back(std::move(fu));
        } else if (scanner.accept("readports")) {
            if (!parseIndexList(scanner, "register file",
                                &desc->readPorts)) {
                return false;
            }
        } else if (scanner.accept("writeports")) {
            if (!parseIndexList(scanner, "register file",
                                &desc->writePorts)) {
                return false;
            }
        } else if (scanner.accept("connect")) {
            MachineDesc::Edge edge;
            const char *what = "id";
            if (scanner.accept("out")) {
                edge.kind = MachineDesc::OutToBuses;
                what = "bus";
            } else if (scanner.accept("rp")) {
                edge.kind = MachineDesc::RpToBuses;
                what = "bus";
            } else if (scanner.accept("bus")) {
                if (!scanner.intInRange("bus", 0, kMaxIndex, &edge.from))
                    return false;
                if (scanner.accept("wp")) {
                    edge.kind = MachineDesc::BusToWps;
                    what = "write port";
                } else if (scanner.accept("in")) {
                    edge.kind = MachineDesc::BusToIns;
                    what = "input port";
                } else {
                    scanner.fail("expected 'wp' or 'in' after bus id");
                    return false;
                }
                if (!parseIndexList(scanner, what, &edge.to))
                    return false;
                desc->edges.push_back(std::move(edge));
                continue;
            } else {
                scanner.fail("expected 'out', 'rp' or 'bus' after "
                             "'connect'");
                return false;
            }
            if (!scanner.intInRange("port", 0, kMaxIndex, &edge.from) ||
                !parseIndexList(scanner, what, &edge.to)) {
                return false;
            }
            desc->edges.push_back(std::move(edge));
        } else if (scanner.accept("latency")) {
            Opcode op;
            std::string_view word = scanner.next();
            if (!opcodeByName(word, &op)) {
                scanner.fail("unknown opcode '" + std::string(word) + "'");
                return false;
            }
            std::int64_t cycles = 0;
            if (!scanner.intInRange("latency", 1, kMaxIndex, &cycles))
                return false;
            desc->latencies.emplace_back(
                static_cast<std::int64_t>(op), cycles);
        } else {
            scanner.fail("unknown machine directive '" +
                         std::string(scanner.peek()) + "'");
            return false;
        }
    }
    return !scanner.failed();
}

void
decodeIndexList(wire::ByteReader &reader, std::vector<std::int64_t> *out)
{
    std::uint32_t count = reader.arrayCount(4);
    out->reserve(out->size() + count);
    for (std::uint32_t i = 0; i < count && !reader.failed(); ++i)
        out->push_back(reader.u32());
}

bool
decodeMachineDesc(wire::ByteReader &reader, MachineDesc *desc)
{
    desc->name = reader.str();
    desc->hasName = true;

    std::uint32_t numRf = reader.arrayCount(8);
    for (std::uint32_t i = 0; i < numRf && !reader.failed(); ++i) {
        MachineDesc::Rf rf;
        rf.name = reader.str();
        rf.capacity = reader.u32();
        desc->regFiles.push_back(std::move(rf));
    }

    std::uint32_t numBus = reader.arrayCount(4);
    for (std::uint32_t i = 0; i < numBus && !reader.failed(); ++i)
        desc->buses.push_back(reader.str());

    std::uint32_t numFu = reader.arrayCount(8);
    for (std::uint32_t i = 0; i < numFu && !reader.failed(); ++i) {
        MachineDesc::Fu fu;
        fu.name = reader.str();
        std::uint8_t bits = reader.u8();
        for (std::size_t c = 0; c < kNumOpClasses; ++c)
            if (bits & (1u << c))
                fu.classes.push_back(static_cast<OpClass>(c));
        if (bits >> kNumOpClasses) {
            reader.fail("bad class bits");
            return false;
        }
        fu.numInputs = reader.u16();
        fu.hasOutput = reader.boolean();
        desc->funcUnits.push_back(std::move(fu));
    }

    decodeIndexList(reader, &desc->readPorts);
    decodeIndexList(reader, &desc->writePorts);

    std::uint32_t numEdges = reader.arrayCount(9);
    for (std::uint32_t i = 0; i < numEdges && !reader.failed(); ++i) {
        MachineDesc::Edge edge;
        std::uint8_t kind = reader.u8();
        if (kind > MachineDesc::BusToIns) {
            reader.fail("bad edge kind " + std::to_string(kind));
            return false;
        }
        edge.kind = static_cast<MachineDesc::EdgeKind>(kind);
        edge.from = reader.u32();
        decodeIndexList(reader, &edge.to);
        desc->edges.push_back(std::move(edge));
    }

    std::uint32_t numLat = reader.arrayCount(8);
    for (std::uint32_t i = 0; i < numLat && !reader.failed(); ++i) {
        std::int64_t op = reader.u32();
        std::int64_t cycles = reader.u32();
        desc->latencies.emplace_back(op, cycles);
    }
    return !reader.failed();
}

} // namespace

void
printMachine(std::ostream &os, const Machine &machine)
{
    os << "machine {\n";
    os << "  name " << wire::quoteString(machine.name()) << "\n";
    for (std::size_t i = 0; i < machine.numRegFiles(); ++i) {
        const RegFile &rf =
            machine.regFile(RegFileId(static_cast<std::uint32_t>(i)));
        os << "  regfile " << wire::quoteString(rf.name) << " "
           << rf.capacity << "\n";
    }
    for (std::size_t i = 0; i < machine.numBuses(); ++i) {
        os << "  bus "
           << wire::quoteString(
                  machine.bus(BusId(static_cast<std::uint32_t>(i))).name)
           << "\n";
    }
    for (std::size_t i = 0; i < machine.numFuncUnits(); ++i) {
        const FuncUnit &fu =
            machine.funcUnit(FuncUnitId(static_cast<std::uint32_t>(i)));
        os << "  funcunit " << wire::quoteString(fu.name) << " [";
        for (std::size_t c = 0; c < kNumOpClasses; ++c)
            if (fu.classes.test(c))
                os << " " << opClassName(static_cast<OpClass>(c));
        os << " ] inputs " << fu.inputs.size()
           << (fu.output.valid() ? " output" : " nooutput") << "\n";
    }
    if (machine.numReadPorts() > 0) {
        os << "  readports [";
        for (std::size_t i = 0; i < machine.numReadPorts(); ++i)
            os << " "
               << machine
                      .readPortRegFile(
                          ReadPortId(static_cast<std::uint32_t>(i)))
                      .index();
        os << " ]\n";
    }
    if (machine.numWritePorts() > 0) {
        os << "  writeports [";
        for (std::size_t i = 0; i < machine.numWritePorts(); ++i)
            os << " "
               << machine
                      .writePortRegFile(
                          WritePortId(static_cast<std::uint32_t>(i)))
                      .index();
        os << " ]\n";
    }
    auto printEdges = [&os](const char *head, std::size_t id,
                            const auto &list) {
        if (list.empty())
            return;
        os << "  connect " << head << " " << id << " [";
        for (auto t : list)
            os << " " << t.index();
        os << " ]\n";
    };
    for (std::size_t i = 0; i < machine.numOutputPorts(); ++i)
        printEdges("out", i,
                   machine.busesFromOutput(
                       OutputPortId(static_cast<std::uint32_t>(i))));
    for (std::size_t i = 0; i < machine.numReadPorts(); ++i)
        printEdges("rp", i,
                   machine.busesToReadPort(
                       ReadPortId(static_cast<std::uint32_t>(i))));
    for (std::size_t i = 0; i < machine.numBuses(); ++i) {
        BusId bus(static_cast<std::uint32_t>(i));
        const auto &wps = machine.writePortsOnBus(bus);
        if (!wps.empty()) {
            os << "  connect bus " << i << " wp [";
            for (WritePortId wp : wps)
                os << " " << wp.index();
            os << " ]\n";
        }
        const auto &ins = machine.inputsOnBus(bus);
        if (!ins.empty()) {
            os << "  connect bus " << i << " in [";
            for (InputPortId in : ins)
                os << " " << in.index();
            os << " ]\n";
        }
    }
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        os << "  latency " << opcodeName(op) << " " << machine.latency(op)
           << "\n";
    }
    os << "}\n";
}

std::string
printMachineToString(const Machine &machine)
{
    std::ostringstream os;
    printMachine(os, machine);
    return os.str();
}

bool
parseMachine(wire::TextScanner &scanner, std::optional<Machine> *out)
{
    MachineDesc desc;
    if (!parseMachineDesc(scanner, &desc))
        return false;
    std::string error;
    if (!buildMachine(desc, out, &error)) {
        scanner.fail(error);
        return false;
    }
    return true;
}

bool
parseMachineText(std::string_view text, std::optional<Machine> *out,
                 std::string *error)
{
    wire::TextScanner scanner(text);
    if (!parseMachine(scanner, out) || !scanner.atEnd()) {
        if (error) {
            *error = scanner.failed() ? scanner.error()
                                      : "trailing input after machine";
        }
        return false;
    }
    return true;
}

void
encodeMachine(wire::ByteWriter &writer, const Machine &machine)
{
    writer.str(machine.name());

    writer.u32(static_cast<std::uint32_t>(machine.numRegFiles()));
    for (std::size_t i = 0; i < machine.numRegFiles(); ++i) {
        const RegFile &rf =
            machine.regFile(RegFileId(static_cast<std::uint32_t>(i)));
        writer.str(rf.name);
        writer.u32(static_cast<std::uint32_t>(rf.capacity));
    }

    writer.u32(static_cast<std::uint32_t>(machine.numBuses()));
    for (std::size_t i = 0; i < machine.numBuses(); ++i)
        writer.str(
            machine.bus(BusId(static_cast<std::uint32_t>(i))).name);

    writer.u32(static_cast<std::uint32_t>(machine.numFuncUnits()));
    for (std::size_t i = 0; i < machine.numFuncUnits(); ++i) {
        const FuncUnit &fu =
            machine.funcUnit(FuncUnitId(static_cast<std::uint32_t>(i)));
        writer.str(fu.name);
        std::uint8_t bits = 0;
        for (std::size_t c = 0; c < kNumOpClasses; ++c)
            if (fu.classes.test(c))
                bits |= static_cast<std::uint8_t>(1u << c);
        writer.u8(bits);
        writer.u16(static_cast<std::uint16_t>(fu.inputs.size()));
        writer.boolean(fu.output.valid());
    }

    auto writeIndexList = [&writer](const auto &list) {
        writer.u32(static_cast<std::uint32_t>(list.size()));
        for (auto id : list)
            writer.u32(id.index());
    };

    writer.u32(static_cast<std::uint32_t>(machine.numReadPorts()));
    for (std::size_t i = 0; i < machine.numReadPorts(); ++i)
        writer.u32(machine
                       .readPortRegFile(
                           ReadPortId(static_cast<std::uint32_t>(i)))
                       .index());
    writer.u32(static_cast<std::uint32_t>(machine.numWritePorts()));
    for (std::size_t i = 0; i < machine.numWritePorts(); ++i)
        writer.u32(machine
                       .writePortRegFile(
                           WritePortId(static_cast<std::uint32_t>(i)))
                       .index());

    // Edge records, in the same grouped order as the text form.
    std::uint32_t numEdges = 0;
    for (std::size_t i = 0; i < machine.numOutputPorts(); ++i)
        numEdges +=
            !machine
                 .busesFromOutput(OutputPortId(static_cast<std::uint32_t>(i)))
                 .empty();
    for (std::size_t i = 0; i < machine.numReadPorts(); ++i)
        numEdges +=
            !machine.busesToReadPort(ReadPortId(static_cast<std::uint32_t>(i)))
                 .empty();
    for (std::size_t i = 0; i < machine.numBuses(); ++i) {
        BusId bus(static_cast<std::uint32_t>(i));
        numEdges += !machine.writePortsOnBus(bus).empty();
        numEdges += !machine.inputsOnBus(bus).empty();
    }
    writer.u32(numEdges);
    auto writeEdge = [&](std::uint8_t kind, std::size_t from,
                         const auto &list) {
        if (list.empty())
            return;
        writer.u8(kind);
        writer.u32(static_cast<std::uint32_t>(from));
        writeIndexList(list);
    };
    for (std::size_t i = 0; i < machine.numOutputPorts(); ++i)
        writeEdge(0, i,
                  machine.busesFromOutput(
                      OutputPortId(static_cast<std::uint32_t>(i))));
    for (std::size_t i = 0; i < machine.numReadPorts(); ++i)
        writeEdge(1, i,
                  machine.busesToReadPort(
                      ReadPortId(static_cast<std::uint32_t>(i))));
    for (std::size_t i = 0; i < machine.numBuses(); ++i) {
        BusId bus(static_cast<std::uint32_t>(i));
        writeEdge(2, i, machine.writePortsOnBus(bus));
        writeEdge(3, i, machine.inputsOnBus(bus));
    }

    writer.u32(static_cast<std::uint32_t>(kNumOpcodes));
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        writer.u32(static_cast<std::uint32_t>(i));
        writer.u32(static_cast<std::uint32_t>(
            machine.latency(static_cast<Opcode>(i))));
    }
}

bool
decodeMachine(wire::ByteReader &reader, std::optional<Machine> *out)
{
    MachineDesc desc;
    if (!decodeMachineDesc(reader, &desc))
        return false;
    std::string error;
    if (!buildMachine(desc, out, &error)) {
        reader.fail(error);
        return false;
    }
    return true;
}

} // namespace cs
