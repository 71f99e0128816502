#pragma once
/// \file serialize.hpp
/// \brief Versioned binary serialization of compiled programs - the
///        persistence layer behind ProgramCache::save/load and the server
///        prewarm manifest. One record payload serves every arity: the
///        ProgramKey, the program the hardware runs, the FitReport and an
///        optional Certification, all in the fixed-width little-endian
///        encoding of common/binio.hpp behind a magic + format-version
///        header.
///
/// Cache-file layout (all integers little-endian):
///
///   header:  magic "OSCSPROG" (8 bytes)
///            u32 format version (kCacheFormatVersion)
///            u32 reserved (0)
///            u64 record count
///   record:  u64 key digest   (ProgramKey::digest() - portable identity)
///            u32 payload size (bytes that follow the checksum)
///            u64 payload FNV-1a checksum
///            payload          (key + program + fit report +
///                              optional certification)
///
/// The program encoding leads with a one-byte layout: a dense program is
/// its per-axis orders plus the row-major coefficient grid, whatever its
/// arity; a sum-of-rank-1 program is its terms (weight, then each factor's
/// axis and coefficients).
///
/// The digest/checksum pair makes every record independently verifiable:
/// a loader can skip a corrupt record by its declared size and keep
/// going, so file corruption degrades to a cold compile instead of a
/// startup failure.

#include <cstdint>
#include <memory>

#include "common/binio.hpp"
#include "compile/program.hpp"

namespace oscs::compile {

/// Cache-file magic, first 8 bytes of every file.
inline constexpr char kCacheMagic[8] = {'O', 'S', 'C', 'S',
                                        'P', 'R', 'O', 'G'};
/// Bump on any change to the record payload encoding. Version-mismatched
/// files are rejected whole (a counted load error, never a crash).
inline constexpr std::uint32_t kCacheFormatVersion = 2;

// Write/read pairs. Readers throw BinIoError on truncation or
// structurally invalid data; callers catch per record.

void write_program_key(BinWriter& out, const ProgramKey& key);
[[nodiscard]] ProgramKey read_program_key(BinReader& in);

void write_program(BinWriter& out, const stochastic::SeparableProgram& program);
/// The program encoding back. Every dense or factor coefficient must lie
/// in [0,1] on the comparator grid of a `width`-bit SNG (a multiple of
/// 2^-width), which is what quantization produces.
/// \throws BinIoError on an unknown layout byte, a shape mismatch, a
///         coefficient off the grid or outside [0,1], or a width outside
///         [1, 62].
[[nodiscard]] stochastic::SeparableProgram read_program(BinReader& in,
                                                        unsigned width);

void write_fit_report(BinWriter& out, const FitReport& report);
[[nodiscard]] FitReport read_fit_report(BinReader& in);

void write_certification(BinWriter& out, const Certification& cert);
[[nodiscard]] Certification read_certification(BinReader& in);

/// One whole record payload: key, run program, fit report, optional
/// certification.
void write_compiled_program(BinWriter& out, const CompiledProgram& program);

/// Rebuild a program from one record payload. The CompiledProgram
/// constructor re-derives the circuit, packed kernel and design operating
/// point deterministically from the stored coefficients, so a loaded
/// program is bit-identical in execution to the one that was saved.
/// \throws BinIoError on truncated/invalid payloads; std::invalid_argument
///         out of the CompiledProgram constructor on inconsistent data.
[[nodiscard]] std::shared_ptr<const CompiledProgram> read_compiled_program(
    BinReader& in);

}  // namespace oscs::compile
