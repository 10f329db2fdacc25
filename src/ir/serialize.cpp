#include "ir/serialize.hpp"

#include <cerrno>
#include <cstdlib>
#include <ostream>
#include <sstream>
#include <utility>

#include "support/logging.hpp"

namespace cs {

namespace {

constexpr std::int64_t kMaxIndex = 1 << 20;

/** Parsed-but-unchecked kernel contents, operations in id order. */
struct KernelDesc
{
    bool hasName = false;
    std::string name;

    struct Blk
    {
        std::string name;
        bool isLoop = false;
    };
    std::vector<Blk> blocks;

    struct Op
    {
        std::int64_t opcode = 0;
        std::int64_t block = 0;
        std::string name;
        std::vector<Operand> operands;
        std::int64_t aliasClass = -1;
        std::int64_t iterStride = 0;
    };
    std::vector<Op> ops;

    /**
     * Per-block operation-id order; when empty for a block, the replay
     * order (append) stands. Only the binary format fills this — text
     * descriptions nest operations, so append order is the block order.
     */
    std::vector<std::vector<std::int64_t>> blockOps;
};

bool
buildKernel(const KernelDesc &desc, std::optional<Kernel> *out,
            std::string *error)
{
    auto fail = [&](const std::string &message) {
        *error = message;
        return false;
    };
    if (!desc.hasName)
        return fail("kernel has no name directive");

    const std::int64_t numBlocks =
        static_cast<std::int64_t>(desc.blocks.size());

    std::int64_t numValues = 0;
    for (std::size_t i = 0; i < desc.ops.size(); ++i) {
        const KernelDesc::Op &op = desc.ops[i];
        std::string where = "operation " + std::to_string(i);
        if (op.opcode < 0 ||
            op.opcode >= static_cast<std::int64_t>(kNumOpcodes)) {
            return fail(where + ": bad opcode");
        }
        Opcode opcode = static_cast<Opcode>(op.opcode);
        if (op.block < 0 || op.block >= numBlocks)
            return fail(where + ": bad block index");
        if (static_cast<int>(op.operands.size()) != opcodeArity(opcode)) {
            return fail(where + ": " + std::string(opcodeName(opcode)) +
                        " expects " +
                        std::to_string(opcodeArity(opcode)) +
                        " operands, got " +
                        std::to_string(op.operands.size()));
        }
        for (const Operand &operand : op.operands) {
            if (operand.kind == Operand::Kind::Value) {
                std::int64_t index = operand.value.valid()
                                         ? static_cast<std::int64_t>(
                                               operand.value.index())
                                         : -1;
                if (index < 0 || index >= numValues) {
                    return fail(where + ": operand references value v" +
                                std::to_string(operand.value.index()) +
                                ", which no earlier operation defines");
                }
                if (operand.distance < 0 || operand.distance > kMaxIndex)
                    return fail(where + ": bad iteration distance");
            }
        }
        if (op.aliasClass < -kMaxIndex || op.aliasClass > kMaxIndex)
            return fail(where + ": bad alias class");
        if (op.iterStride < -kMaxIndex || op.iterStride > kMaxIndex)
            return fail(where + ": bad iteration stride");
        if (opcodeHasResult(opcode))
            ++numValues;
    }
    if (!desc.blockOps.empty() &&
        desc.blockOps.size() != desc.blocks.size()) {
        return fail("block order table does not match block count");
    }

    // Everything is validated; replay under a catch as a safety net so
    // a missed case surfaces as a parse error, never a crash.
    try {
        Kernel kernel(desc.name);
        for (const KernelDesc::Blk &blk : desc.blocks)
            kernel.addBlock(blk.name, blk.isLoop);
        for (const KernelDesc::Op &op : desc.ops) {
            OperationId id = kernel.addOperation(
                BlockId(static_cast<std::uint32_t>(op.block)),
                static_cast<Opcode>(op.opcode), op.operands, op.name);
            if (op.aliasClass != -1 || op.iterStride != 0) {
                kernel.setOpAnnotations(id,
                                        static_cast<int>(op.aliasClass),
                                        static_cast<int>(op.iterStride));
            }
        }
        for (std::size_t b = 0; b < desc.blockOps.size(); ++b) {
            if (desc.blockOps[b].empty())
                continue;
            std::vector<OperationId> order;
            order.reserve(desc.blockOps[b].size());
            for (std::int64_t id : desc.blockOps[b]) {
                if (id < 0 ||
                    id >= static_cast<std::int64_t>(desc.ops.size())) {
                    return fail("block order references bad operation id");
                }
                order.push_back(
                    OperationId(static_cast<std::uint32_t>(id)));
            }
            if (!kernel.setBlockOperations(
                    BlockId(static_cast<std::uint32_t>(b)),
                    std::move(order))) {
                return fail(
                    "block " + std::to_string(b) +
                    " order is not a permutation of its operations");
            }
        }
        out->emplace(std::move(kernel));
    } catch (const FatalError &e) {
        return fail(std::string("invalid kernel: ") + e.what());
    } catch (const PanicError &e) {
        return fail(std::string("invalid kernel: ") + e.what());
    }
    return true;
}

void
printOperand(std::ostream &os, const Operand &operand)
{
    switch (operand.kind) {
      case Operand::Kind::Value:
        os << "v" << operand.value.index();
        if (operand.distance != 0)
            os << "@" << operand.distance;
        break;
      case Operand::Kind::ImmInt:
        os << "i" << operand.immInt;
        break;
      case Operand::Kind::ImmFloat:
        os << "f" << wire::exactFloat(operand.immFloat);
        break;
      case Operand::Kind::None:
        os << "none";
        break;
    }
}

bool
parseOperand(wire::TextScanner &scanner, Operand *out)
{
    if (scanner.failed())
        return false;
    std::string token(scanner.next());
    if (scanner.lastWasQuoted() || token.empty()) {
        scanner.fail("expected an operand");
        return false;
    }
    if (token == "none") {
        *out = Operand();
        return true;
    }
    const char *rest = token.c_str() + 1;
    char *end = nullptr;
    errno = 0;
    switch (token[0]) {
      case 'v': {
        long long id = std::strtoll(rest, &end, 10);
        if (end == rest || errno == ERANGE || id < 0 || id > kMaxIndex) {
            scanner.fail("bad value operand '" + token + "'");
            return false;
        }
        int distance = 0;
        if (*end == '@') {
            const char *dist = end + 1;
            errno = 0;
            long long d = std::strtoll(dist, &end, 10);
            if (end == dist || errno == ERANGE || *end != '\0' || d < 0 ||
                d > kMaxIndex) {
                scanner.fail("bad iteration distance in '" + token + "'");
                return false;
            }
            distance = static_cast<int>(d);
        } else if (*end != '\0') {
            scanner.fail("bad value operand '" + token + "'");
            return false;
        }
        *out = Operand::fromValue(
            ValueId(static_cast<std::uint32_t>(id)), distance);
        return true;
      }
      case 'i': {
        long long v = std::strtoll(rest, &end, 10);
        if (end == rest || errno == ERANGE || *end != '\0') {
            scanner.fail("bad integer immediate '" + token + "'");
            return false;
        }
        *out = Operand::fromInt(v);
        return true;
      }
      case 'f': {
        double v = std::strtod(rest, &end);
        if (end == rest || *end != '\0') {
            scanner.fail("bad float immediate '" + token + "'");
            return false;
        }
        *out = Operand::fromFloat(v);
        return true;
      }
      default:
        scanner.fail("bad operand '" + token +
                     "' (expected v<id>, i<int>, f<float> or none)");
        return false;
    }
}

bool
parseOp(wire::TextScanner &scanner, std::int64_t blockIndex,
        KernelDesc *desc)
{
    KernelDesc::Op op;
    op.block = blockIndex;
    Opcode opcode;
    std::string_view word = scanner.next();
    if (!opcodeByName(word, &opcode)) {
        scanner.fail("unknown opcode '" + std::string(word) + "'");
        return false;
    }
    op.opcode = static_cast<std::int64_t>(opcode);
    if (!scanner.expect("("))
        return false;
    while (!scanner.accept(")")) {
        if (scanner.failed() || scanner.atEnd()) {
            scanner.fail("unterminated operand list");
            return false;
        }
        if (!op.operands.empty() && !scanner.expect(","))
            return false;
        Operand operand;
        if (!parseOperand(scanner, &operand))
            return false;
        if (op.operands.size() >= 64) {
            scanner.fail("too many operands");
            return false;
        }
        op.operands.push_back(operand);
    }
    if (!scanner.quoted(&op.name))
        return false;
    if (scanner.accept("alias")) {
        if (!scanner.intInRange("alias class", -kMaxIndex, kMaxIndex,
                                &op.aliasClass)) {
            return false;
        }
    }
    if (scanner.accept("stride")) {
        if (!scanner.intInRange("stride", -kMaxIndex, kMaxIndex,
                                &op.iterStride)) {
            return false;
        }
    }
    desc->ops.push_back(std::move(op));
    return true;
}

bool
parseKernelDesc(wire::TextScanner &scanner, KernelDesc *desc)
{
    if (!scanner.expect("kernel") || !scanner.expect("{"))
        return false;
    while (!scanner.accept("}")) {
        if (scanner.failed())
            return false;
        if (scanner.atEnd()) {
            scanner.fail("unterminated kernel block");
            return false;
        }
        if (scanner.accept("name")) {
            if (!scanner.quoted(&desc->name))
                return false;
            desc->hasName = true;
        } else if (scanner.accept("block")) {
            KernelDesc::Blk blk;
            if (!scanner.quoted(&blk.name))
                return false;
            if (scanner.accept("loop"))
                blk.isLoop = true;
            else if (scanner.accept("noloop"))
                blk.isLoop = false;
            else {
                scanner.fail("expected 'loop' or 'noloop'");
                return false;
            }
            std::int64_t blockIndex =
                static_cast<std::int64_t>(desc->blocks.size());
            desc->blocks.push_back(std::move(blk));
            if (!scanner.expect("{"))
                return false;
            while (!scanner.accept("}")) {
                if (scanner.failed() || scanner.atEnd()) {
                    scanner.fail("unterminated block");
                    return false;
                }
                if (!scanner.expect("op") ||
                    !parseOp(scanner, blockIndex, desc)) {
                    return false;
                }
            }
        } else {
            scanner.fail("unknown kernel directive '" +
                         std::string(scanner.peek()) + "'");
            return false;
        }
    }
    return !scanner.failed();
}

void
encodeOperand(wire::ByteWriter &writer, const Operand &operand)
{
    writer.u8(static_cast<std::uint8_t>(operand.kind));
    switch (operand.kind) {
      case Operand::Kind::Value:
        writer.u32(operand.value.index());
        writer.i32(operand.distance);
        break;
      case Operand::Kind::ImmInt:
        writer.i64(operand.immInt);
        break;
      case Operand::Kind::ImmFloat:
        writer.f64(operand.immFloat);
        break;
      case Operand::Kind::None:
        break;
    }
}

bool
decodeOperand(wire::ByteReader &reader, Operand *out)
{
    std::uint8_t kind = reader.u8();
    switch (kind) {
      case static_cast<std::uint8_t>(Operand::Kind::Value): {
        std::uint32_t id = reader.u32();
        std::int32_t distance = reader.i32();
        *out = Operand::fromValue(ValueId(id), distance);
        return !reader.failed();
      }
      case static_cast<std::uint8_t>(Operand::Kind::ImmInt):
        *out = Operand::fromInt(reader.i64());
        return !reader.failed();
      case static_cast<std::uint8_t>(Operand::Kind::ImmFloat):
        *out = Operand::fromFloat(reader.f64());
        return !reader.failed();
      case static_cast<std::uint8_t>(Operand::Kind::None):
        *out = Operand();
        return !reader.failed();
      default:
        reader.fail("bad operand kind " + std::to_string(kind));
        return false;
    }
}

bool
decodeKernelDesc(wire::ByteReader &reader, KernelDesc *desc)
{
    desc->name = reader.str();
    desc->hasName = true;

    std::uint32_t numBlocks = reader.arrayCount(5);
    for (std::uint32_t i = 0; i < numBlocks && !reader.failed(); ++i) {
        KernelDesc::Blk blk;
        blk.name = reader.str();
        blk.isLoop = reader.boolean();
        desc->blocks.push_back(std::move(blk));
    }

    std::uint32_t numOps = reader.arrayCount(19);
    for (std::uint32_t i = 0; i < numOps && !reader.failed(); ++i) {
        KernelDesc::Op op;
        op.opcode = reader.u8();
        op.block = reader.u32();
        op.name = reader.str();
        std::uint8_t numOperands = reader.u8();
        if (numOperands > 64) {
            reader.fail("too many operands");
            return false;
        }
        for (std::uint8_t s = 0; s < numOperands; ++s) {
            Operand operand;
            if (!decodeOperand(reader, &operand))
                return false;
            op.operands.push_back(operand);
        }
        op.aliasClass = reader.i32();
        op.iterStride = reader.i32();
        desc->ops.push_back(std::move(op));
    }

    for (std::uint32_t b = 0; b < numBlocks && !reader.failed(); ++b) {
        std::vector<std::int64_t> order;
        std::uint32_t count = reader.arrayCount(4);
        order.reserve(count);
        for (std::uint32_t i = 0; i < count && !reader.failed(); ++i)
            order.push_back(reader.u32());
        desc->blockOps.push_back(std::move(order));
    }
    return !reader.failed();
}

} // namespace

void
printKernel(std::ostream &os, const Kernel &kernel)
{
    os << "kernel {\n";
    os << "  name " << wire::quoteString(kernel.name()) << "\n";
    for (const Block &blk : kernel.blocks()) {
        os << "  block " << wire::quoteString(blk.name)
           << (blk.isLoop ? " loop" : " noloop") << " {\n";
        for (OperationId opId : blk.operations) {
            const Operation &op = kernel.operation(opId);
            os << "    op " << opcodeName(op.opcode) << " (";
            for (std::size_t s = 0; s < op.operands.size(); ++s) {
                os << (s == 0 ? " " : " , ");
                printOperand(os, op.operands[s]);
            }
            os << " ) " << wire::quoteString(op.name);
            if (op.aliasClass != -1)
                os << " alias " << op.aliasClass;
            if (op.iterStride != 0)
                os << " stride " << op.iterStride;
            os << "\n";
        }
        os << "  }\n";
    }
    os << "}\n";
}

std::string
printKernelToString(const Kernel &kernel)
{
    std::ostringstream os;
    printKernel(os, kernel);
    return os.str();
}

bool
parseKernel(wire::TextScanner &scanner, std::optional<Kernel> *out)
{
    KernelDesc desc;
    if (!parseKernelDesc(scanner, &desc))
        return false;
    std::string error;
    if (!buildKernel(desc, out, &error)) {
        scanner.fail(error);
        return false;
    }
    return true;
}

bool
parseKernelText(std::string_view text, std::optional<Kernel> *out,
                std::string *error)
{
    wire::TextScanner scanner(text);
    if (!parseKernel(scanner, out) || !scanner.atEnd()) {
        if (error) {
            *error = scanner.failed() ? scanner.error()
                                      : "trailing input after kernel";
        }
        return false;
    }
    return true;
}

void
encodeKernel(wire::ByteWriter &writer, const Kernel &kernel)
{
    writer.str(kernel.name());

    writer.u32(static_cast<std::uint32_t>(kernel.numBlocks()));
    for (const Block &blk : kernel.blocks()) {
        writer.str(blk.name);
        writer.boolean(blk.isLoop);
    }

    writer.u32(static_cast<std::uint32_t>(kernel.numOperations()));
    for (const Operation &op : kernel.operations()) {
        writer.u8(static_cast<std::uint8_t>(op.opcode));
        writer.u32(op.block.index());
        writer.str(op.name);
        writer.u8(static_cast<std::uint8_t>(op.operands.size()));
        for (const Operand &operand : op.operands)
            encodeOperand(writer, operand);
        writer.i32(op.aliasClass);
        writer.i32(op.iterStride);
    }

    for (const Block &blk : kernel.blocks()) {
        writer.u32(static_cast<std::uint32_t>(blk.operations.size()));
        for (OperationId id : blk.operations)
            writer.u32(id.index());
    }
}

bool
decodeKernel(wire::ByteReader &reader, std::optional<Kernel> *out)
{
    KernelDesc desc;
    if (!decodeKernelDesc(reader, &desc))
        return false;
    std::string error;
    if (!buildKernel(desc, out, &error)) {
        reader.fail(error);
        return false;
    }
    return true;
}

} // namespace cs
