#include "machine/opclass.hpp"

#include "support/logging.hpp"

namespace cs {

OpClass
opcodeClass(Opcode op)
{
    switch (op) {
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMin:
      case Opcode::IMax:
      case Opcode::IAnd:
      case Opcode::IOr:
      case Opcode::IXor:
      case Opcode::IShl:
      case Opcode::IShr:
      case Opcode::FAdd:
      case Opcode::FSub:
        return OpClass::Add;
      case Opcode::IMul:
      case Opcode::IMulFix:
      case Opcode::FMul:
        return OpClass::Multiply;
      case Opcode::IDiv:
      case Opcode::FDiv:
        return OpClass::Divide;
      case Opcode::Load:
      case Opcode::Store:
        return OpClass::LoadStore;
      case Opcode::Shuffle:
        return OpClass::Permute;
      case Opcode::SpRead:
      case Opcode::SpWrite:
        return OpClass::Scratch;
      case Opcode::Copy:
        return OpClass::CopyCls;
      default:
        CS_PANIC("unknown opcode ", static_cast<int>(op));
    }
}

int
opcodeArity(Opcode op)
{
    switch (op) {
      case Opcode::Load:
      case Opcode::SpRead:
      case Opcode::Copy:
        return 1;
      case Opcode::Store:
      case Opcode::SpWrite:
      default:
        return 2;
    }
}

bool
opcodeHasResult(Opcode op)
{
    switch (op) {
      case Opcode::Store:
      case Opcode::SpWrite:
        return false;
      default:
        return true;
    }
}

std::string_view
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::IAdd: return "iadd";
      case Opcode::ISub: return "isub";
      case Opcode::IMin: return "imin";
      case Opcode::IMax: return "imax";
      case Opcode::IAnd: return "iand";
      case Opcode::IOr: return "ior";
      case Opcode::IXor: return "ixor";
      case Opcode::IShl: return "ishl";
      case Opcode::IShr: return "ishr";
      case Opcode::FAdd: return "fadd";
      case Opcode::FSub: return "fsub";
      case Opcode::IMul: return "imul";
      case Opcode::IMulFix: return "imulfix";
      case Opcode::FMul: return "fmul";
      case Opcode::IDiv: return "idiv";
      case Opcode::FDiv: return "fdiv";
      case Opcode::Load: return "load";
      case Opcode::Store: return "store";
      case Opcode::Shuffle: return "shuffle";
      case Opcode::SpRead: return "spread";
      case Opcode::SpWrite: return "spwrite";
      case Opcode::Copy: return "copy";
      default: return "?";
    }
}

bool
opcodeByName(std::string_view name, Opcode *out)
{
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        Opcode op = static_cast<Opcode>(i);
        if (opcodeName(op) == name) {
            *out = op;
            return true;
        }
    }
    return false;
}

std::string_view
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::Add: return "add";
      case OpClass::Multiply: return "multiply";
      case OpClass::Divide: return "divide";
      case OpClass::LoadStore: return "loadstore";
      case OpClass::Permute: return "permute";
      case OpClass::Scratch: return "scratch";
      case OpClass::CopyCls: return "copy";
      default: return "?";
    }
}

int
defaultLatency(Opcode op)
{
    switch (op) {
      case Opcode::FAdd:
      case Opcode::FSub:
        return 2;
      case Opcode::IMul:
      case Opcode::IMulFix:
        return 2;
      case Opcode::FMul:
        return 3;
      case Opcode::IDiv:
      case Opcode::FDiv:
        return 8;
      case Opcode::Load:
        return 2;
      default:
        return 1;
    }
}

} // namespace cs
