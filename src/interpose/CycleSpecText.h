//===- interpose/CycleSpecText.h - Cycle-spec grammar ------------*- C++ -*-===//
//
// Part of the DeadlockFuzzer reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one emitter and parser of the textual cycle specification that
/// dlf-analyze and dlf-observe print on `cycle-spec:` lines and the preload
/// library reads from DLF_PRELOAD_CYCLE (grammar documented in
/// TraceFormat.h):
///
///   spec      := component (';' component)*
///   component := threadAbs '|' lockAbs '|' site (',' site)*
///
/// Every field is non-empty and free of the separators. Header-only and
/// standard-library only, so the preload library (which does not link
/// libdlf) parses exactly what the analyzers print.
///
//===----------------------------------------------------------------------===//

#ifndef DLF_INTERPOSE_CYCLESPECTEXT_H
#define DLF_INTERPOSE_CYCLESPECTEXT_H

#include <string>
#include <string_view>
#include <vector>

namespace dlf {
namespace interpose {

/// One component of a textual cycle spec: thread and lock abstractions plus
/// the context C_i (acquire sites of the held locks, then the pending
/// acquire's site, outermost first).
struct CycleSpecComponent {
  std::string ThreadAbs;
  std::string LockAbs;
  std::vector<std::string> Context;
};

/// Renders \p Components in the cycle-spec grammar.
inline std::string
formatCycleSpec(const std::vector<CycleSpecComponent> &Components) {
  std::string Out;
  for (size_t C = 0; C != Components.size(); ++C) {
    if (C)
      Out += ';';
    Out += Components[C].ThreadAbs;
    Out += '|';
    Out += Components[C].LockAbs;
    Out += '|';
    for (size_t S = 0; S != Components[C].Context.size(); ++S) {
      if (S)
        Out += ',';
      Out += Components[C].Context[S];
    }
  }
  return Out;
}

namespace detail {

/// Splits \p Text at every \p Sep; false when any piece is empty.
inline bool splitNonEmpty(std::string_view Text, char Sep,
                          std::vector<std::string_view> &Pieces) {
  Pieces.clear();
  for (;;) {
    size_t End = Text.find(Sep);
    Pieces.push_back(Text.substr(0, End));
    if (Pieces.back().empty())
      return false;
    if (End == std::string_view::npos)
      return true;
    Text.remove_prefix(End + 1);
  }
}

} // namespace detail

/// Parses \p Text into \p Out. Returns false — leaving \p Out unspecified —
/// when the text is empty or any component, field or context site is
/// empty, or a component does not have exactly three '|'-separated fields.
inline bool parseCycleSpec(std::string_view Text,
                           std::vector<CycleSpecComponent> &Out) {
  Out.clear();
  std::vector<std::string_view> Components, Fields, Sites;
  if (!detail::splitNonEmpty(Text, ';', Components))
    return false;
  for (std::string_view Component : Components) {
    if (!detail::splitNonEmpty(Component, '|', Fields) || Fields.size() != 3 ||
        !detail::splitNonEmpty(Fields[2], ',', Sites))
      return false;
    CycleSpecComponent &Parsed = Out.emplace_back();
    Parsed.ThreadAbs = Fields[0];
    Parsed.LockAbs = Fields[1];
    Parsed.Context.assign(Sites.begin(), Sites.end());
  }
  return true;
}

} // namespace interpose
} // namespace dlf

#endif // DLF_INTERPOSE_CYCLESPECTEXT_H
