//===- campaign/Json.cpp - Minimal JSON reader/writer -----------------------===//

#include "campaign/Json.h"

#include "support/JsonEscape.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

using namespace dlf;
using namespace dlf::campaign;

const JsonValue &JsonValue::operator[](const std::string &Key) const {
  static const JsonValue Null;
  auto It = ObjVal.find(Key);
  return It == ObjVal.end() ? Null : It->second;
}

namespace {

void dumpValue(std::ostringstream &OS, const JsonValue &V);

void dumpNumber(std::ostringstream &OS, double N) {
  if (std::isfinite(N) && N == std::floor(N) && std::fabs(N) < 9e15) {
    OS << static_cast<long long>(N);
    return;
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", N);
  OS << Buf;
}

} // namespace

std::string JsonValue::dump() const {
  std::ostringstream OS;
  dumpValue(OS, *this);
  return OS.str();
}

namespace {

void dumpValue(std::ostringstream &OS, const JsonValue &V) {
  switch (V.kind()) {
  case JsonValue::Kind::Null:
    OS << "null";
    break;
  case JsonValue::Kind::Bool:
    OS << (V.asBool() ? "true" : "false");
    break;
  case JsonValue::Kind::Number:
    dumpNumber(OS, V.asNumber());
    break;
  case JsonValue::Kind::String:
    OS << '"' << jsonEscape(V.asString()) << '"';
    break;
  case JsonValue::Kind::Array: {
    OS << '[';
    bool First = true;
    for (const JsonValue &E : V.items()) {
      if (!First)
        OS << ',';
      First = false;
      dumpValue(OS, E);
    }
    OS << ']';
    break;
  }
  case JsonValue::Kind::Object: {
    // std::map iterates sorted, so journal lines are byte-deterministic
    // for a given field set.
    OS << '{';
    bool First = true;
    for (const auto &[Key, Val] : V.fields()) {
      if (!First)
        OS << ',';
      First = false;
      OS << '"' << jsonEscape(Key) << '"';
      OS << ':';
      dumpValue(OS, Val);
    }
    OS << '}';
    break;
  }
  }
}

} // namespace

namespace {

// -- Parser ------------------------------------------------------------------

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  std::string Err;

  explicit Parser(const std::string &T) : Text(T) {}

  bool fail(const std::string &Msg) {
    if (Err.empty())
      Err = Msg + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && std::isspace(static_cast<unsigned char>(
                                    Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return fail(std::string("expected '") + C + "'");
  }

  bool peekIs(char C) {
    skipWs();
    return Pos < Text.size() && Text[Pos] == C;
  }

  bool parseValue(JsonValue &Out) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Out);
    if (C == '[')
      return parseArray(Out);
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = JsonValue(std::move(S));
      return true;
    }
    if (C == 't' || C == 'f')
      return parseKeyword(Out);
    if (C == 'n')
      return parseKeyword(Out);
    return parseNumber(Out);
  }

  bool parseKeyword(JsonValue &Out) {
    auto Match = [&](const char *Kw) {
      size_t N = std::strlen(Kw);
      if (Text.compare(Pos, N, Kw) == 0) {
        Pos += N;
        return true;
      }
      return false;
    };
    if (Match("true")) {
      Out = JsonValue(true);
      return true;
    }
    if (Match("false")) {
      Out = JsonValue(false);
      return true;
    }
    if (Match("null")) {
      Out = JsonValue();
      return true;
    }
    return fail("invalid keyword");
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    if (Pos == Start)
      return fail("invalid number");
    char *End = nullptr;
    std::string Num = Text.substr(Start, Pos - Start);
    double V = std::strtod(Num.c_str(), &End);
    if (!End || *End != '\0')
      return fail("invalid number");
    Out = JsonValue(V);
    return true;
  }

  bool parseString(std::string &Out) {
    skipWs();
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
        Out += '"';
        break;
      case '\\':
        Out += '\\';
        break;
      case '/':
        Out += '/';
        break;
      case 'n':
        Out += '\n';
        break;
      case 'r':
        Out += '\r';
        break;
      case 't':
        Out += '\t';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I != 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code += static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code += static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code += static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("invalid \\u escape");
        }
        // The journal only escapes control characters; encode the code
        // point as UTF-8 for completeness.
        if (Code < 0x80) {
          Out += static_cast<char>(Code);
        } else if (Code < 0x800) {
          Out += static_cast<char>(0xC0 | (Code >> 6));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        } else {
          Out += static_cast<char>(0xE0 | (Code >> 12));
          Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
          Out += static_cast<char>(0x80 | (Code & 0x3F));
        }
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseArray(JsonValue &Out) {
    if (!consume('['))
      return false;
    Out = JsonValue::array();
    if (peekIs(']')) {
      ++Pos;
      return true;
    }
    for (;;) {
      JsonValue Elem;
      if (!parseValue(Elem))
        return false;
      Out.push(std::move(Elem));
      skipWs();
      if (peekIs(',')) {
        ++Pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parseObject(JsonValue &Out) {
    if (!consume('{'))
      return false;
    Out = JsonValue::object();
    if (peekIs('}')) {
      ++Pos;
      return true;
    }
    for (;;) {
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      JsonValue Val;
      if (!parseValue(Val))
        return false;
      Out.set(Key, std::move(Val));
      if (peekIs(',')) {
        ++Pos;
        continue;
      }
      return consume('}');
    }
  }
};

} // namespace

bool dlf::campaign::parseJson(const std::string &Text, JsonValue &Out,
                              std::string *Error) {
  Parser P(Text);
  if (!P.parseValue(Out)) {
    if (Error)
      *Error = P.Err;
    return false;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = "trailing characters at offset " + std::to_string(P.Pos);
    return false;
  }
  return true;
}
