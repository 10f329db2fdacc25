/**
 * @file
 * Operation vocabulary of the modeled machines: opcodes, the operation
 * classes that group them onto functional-unit types, default latencies,
 * and operand-shape metadata.
 *
 * The functional-unit mix follows the paper's Imagine configuration
 * (Section 5): adders, multipliers, a divider, a permutation unit, a
 * scratchpad, and load/store units, plus the copy operation that
 * communication scheduling inserts to move values between register
 * files.
 */

#ifndef CS_MACHINE_OPCLASS_HPP
#define CS_MACHINE_OPCLASS_HPP

#include <cstdint>
#include <string_view>

namespace cs {

/**
 * Functional-unit capability classes. A functional unit supports a set
 * of these; an operation requires exactly one.
 */
enum class OpClass : std::uint8_t {
    Add,        ///< integer/float add, sub, logic, shift, min/max
    Multiply,   ///< integer/fixed/float multiply
    Divide,     ///< integer/float divide
    LoadStore,  ///< memory access
    Permute,    ///< byte/word shuffle unit
    Scratch,    ///< indexed scratchpad memory
    CopyCls,    ///< inter-register-file copy
    NumClasses,
};

constexpr std::size_t kNumOpClasses =
    static_cast<std::size_t>(OpClass::NumClasses);

/** Concrete operations the IR and simulator understand. */
enum class Opcode : std::uint8_t {
    // Add class
    IAdd, ISub, IMin, IMax, IAnd, IOr, IXor, IShl, IShr,
    FAdd, FSub,
    // Multiply class
    IMul, IMulFix, FMul,
    // Divide class
    IDiv, FDiv,
    // LoadStore class
    Load, Store,
    // Permute class
    Shuffle,
    // Scratch class
    SpRead, SpWrite,
    // Copy class
    Copy,
    NumOpcodes,
};

constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::NumOpcodes);

/** The functional-unit class that executes the opcode. */
OpClass opcodeClass(Opcode op);

/** Number of register/immediate operands the opcode consumes. */
int opcodeArity(Opcode op);

/** Whether the opcode produces a result value. */
bool opcodeHasResult(Opcode op);

/** Short mnemonic, e.g. "fadd". */
std::string_view opcodeName(Opcode op);

/** The opcode whose opcodeName() is @p name; false if there is none. */
bool opcodeByName(std::string_view name, Opcode *out);

/** Class name, e.g. "add". */
std::string_view opClassName(OpClass cls);

/**
 * Default operation latencies in cycles. Per the paper, operation
 * latency (including register-file access time) is held constant across
 * register-file architectures so that only scheduling quality differs.
 */
int defaultLatency(Opcode op);

} // namespace cs

#endif // CS_MACHINE_OPCLASS_HPP
