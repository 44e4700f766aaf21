//===- support/JsonEscape.h - JSON string escaping --------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON string escaper every exporter shares: the campaign journal
/// and report JSON, the metrics and timeline documents, and the status
/// server's responses. Quote and backslash get a backslash; newline, tab
/// and carriage return their short escapes; every other control character
/// its \u00XX form. Header-only so the LD_PRELOAD library, which compiles
/// the telemetry sources in without linking the support library, escapes
/// identically.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_SUPPORT_JSONESCAPE_H
#define DLF_SUPPORT_JSONESCAPE_H

#include <string>
#include <string_view>

namespace dlf {

/// Appends \p S to \p Out as the body of a JSON string (no quotes).
inline void jsonEscapeTo(std::string &Out, std::string_view S) {
  static constexpr char Hex[] = "0123456789abcdef";
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        Out += "\\u00";
        Out += Hex[(Ch >> 4) & 0xF];
        Out += Hex[Ch & 0xF];
      } else {
        Out += Ch;
      }
    }
  }
}

/// \p S as the body of a JSON string (no quotes).
inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size() + 2);
  jsonEscapeTo(Out, S);
  return Out;
}

} // namespace dlf

#endif // DLF_SUPPORT_JSONESCAPE_H
