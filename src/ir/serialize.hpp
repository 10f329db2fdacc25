/**
 * @file
 * Serializable kernel descriptions: text and binary formats that
 * round-trip exactly (DESIGN.md §5f).
 *
 * Both formats replay Kernel::addOperation in operation-id order, which
 * reproduces identical operation ids, value ids, use lists, and names.
 * The builder API cannot forward-reference values, so replay in id
 * order is always well-formed for a valid description; an operand
 * that names a value no earlier operation defines is refused. The
 * binary format additionally records each block's operation order,
 * so a kernel whose block order differs from id order round-trips;
 * the text format nests operations inside their blocks and therefore
 * targets descriptions where block order equals id order.
 *
 * Parsers never crash on malformed input: opcode arity, value
 * references, block ids, and numeric ranges are validated before any
 * Kernel call.
 */

#ifndef CS_IR_SERIALIZE_HPP
#define CS_IR_SERIALIZE_HPP

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "ir/kernel.hpp"
#include "support/wire.hpp"

namespace cs {

/** Emit the text form: "kernel { ... }" with trailing newline. */
void printKernel(std::ostream &os, const Kernel &kernel);

/** Text form as a string. */
std::string printKernelToString(const Kernel &kernel);

/**
 * Parse one "kernel { ... }" block. On failure the scanner latches a
 * diagnostic and false is returned.
 */
bool parseKernel(wire::TextScanner &scanner, std::optional<Kernel> *out);

/** Parse a complete text document containing exactly one kernel. */
bool parseKernelText(std::string_view text, std::optional<Kernel> *out,
                     std::string *error);

/** Append the binary form to the writer. */
void encodeKernel(wire::ByteWriter &writer, const Kernel &kernel);

/** Decode one binary kernel; false + reader.error() on failure. */
bool decodeKernel(wire::ByteReader &reader, std::optional<Kernel> *out);

} // namespace cs

#endif // CS_IR_SERIALIZE_HPP
