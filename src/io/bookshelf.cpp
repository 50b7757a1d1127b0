#include "io/bookshelf.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include "common/str_util.h"

namespace puffer {
namespace {

namespace fs = std::filesystem;

// Reads all non-comment, non-empty lines of a Bookshelf file. Comments
// start with '#'; the first "UCLA ..." header line is skipped.
std::vector<std::string> read_payload_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw BookshelfError("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  bool first = true;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const std::string_view t = trim(line);
    if (t.empty()) continue;
    if (first && starts_with(t, "UCLA")) {
      first = false;
      continue;
    }
    first = false;
    lines.emplace_back(t);
  }
  return lines;
}

double to_double(const std::string& s, const char* what) {
  try {
    return std::stod(s);
  } catch (const std::exception&) {
    throw BookshelfError(std::string("bad number for ") + what + ": " + s);
  }
}

int to_int(const std::string& s, const char* what) {
  try {
    return std::stoi(s);
  } catch (const std::exception&) {
    throw BookshelfError(std::string("bad integer for ") + what + ": " + s);
  }
}

struct AuxFiles {
  std::string nodes, nets, wts, pl, scl, route;
};

AuxFiles parse_aux(const std::string& aux_path) {
  std::ifstream in(aux_path);
  if (!in) throw BookshelfError("cannot open " + aux_path);
  const fs::path dir = fs::path(aux_path).parent_path();
  AuxFiles files;
  std::string line;
  while (std::getline(in, line)) {
    // Format: "RowBasedPlacement : a.nodes a.nets a.wts a.pl a.scl [...]"
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    for (const std::string& tok : split_ws(line.substr(colon + 1))) {
      const std::string full = (dir / tok).string();
      if (tok.ends_with(".nodes")) files.nodes = full;
      else if (tok.ends_with(".nets")) files.nets = full;
      else if (tok.ends_with(".wts")) files.wts = full;
      else if (tok.ends_with(".pl")) files.pl = full;
      else if (tok.ends_with(".scl")) files.scl = full;
      else if (tok.ends_with(".route")) files.route = full;
    }
  }
  if (files.nodes.empty() || files.nets.empty() || files.pl.empty() ||
      files.scl.empty()) {
    throw BookshelfError("aux file missing required entries: " + aux_path);
  }
  return files;
}

void parse_nodes(const std::string& path, Design& design,
                 std::map<std::string, CellId>& by_name) {
  for (const std::string& line : read_payload_lines(path)) {
    if (starts_with(line, "NumNodes") || starts_with(line, "NumTerminals")) {
      continue;
    }
    auto toks = split_ws(line);
    if (toks.size() < 3) throw BookshelfError("bad .nodes line: " + line);
    Cell cell;
    cell.name = toks[0];
    cell.width = to_double(toks[1], "node width");
    cell.height = to_double(toks[2], "node height");
    cell.kind = CellKind::kMovable;
    if (toks.size() >= 4) {
      if (iequals(toks[3], "terminal")) {
        // Large fixed objects are macros; point-ish ones are terminals.
        cell.kind = (cell.area() > 0.0) ? CellKind::kMacro : CellKind::kTerminal;
      } else if (iequals(toks[3], "terminal_NI")) {
        cell.kind = CellKind::kTerminal;
      }
    }
    // Read the name before add_cell moves the cell away (the RHS of an
    // assignment is sequenced first, so by_name[cell.name] would index on
    // a moved-from string).
    const std::string name = cell.name;
    by_name[name] = design.add_cell(std::move(cell));
  }
}

void parse_nets(const std::string& path, Design& design,
                const std::map<std::string, CellId>& by_name) {
  const auto lines = read_payload_lines(path);
  std::size_t i = 0;
  int anon_net = 0;
  while (i < lines.size()) {
    const std::string& line = lines[i];
    if (starts_with(line, "NumNets") || starts_with(line, "NumPins")) {
      ++i;
      continue;
    }
    if (!starts_with(line, "NetDegree")) {
      throw BookshelfError("expected NetDegree, got: " + line);
    }
    auto toks = split_ws(line);
    // "NetDegree : k [name]"
    if (toks.size() < 3) throw BookshelfError("bad NetDegree line: " + line);
    const int degree = to_int(toks[2], "net degree");
    std::string net_name =
        toks.size() >= 4 ? toks[3] : ("net" + std::to_string(anon_net++));
    const NetId net = design.add_net(std::move(net_name));
    ++i;
    for (int k = 0; k < degree; ++k, ++i) {
      if (i >= lines.size()) throw BookshelfError("truncated net in " + path);
      auto ptoks = split_ws(lines[i]);
      // "cellname I/O/B : dx dy" (offsets from cell center) or "cellname I/O/B"
      if (ptoks.empty()) throw BookshelfError("bad net pin line");
      const auto it = by_name.find(ptoks[0]);
      if (it == by_name.end()) {
        throw BookshelfError("net pin references unknown cell " + ptoks[0]);
      }
      double cdx = 0.0, cdy = 0.0;
      if (ptoks.size() >= 5) {
        cdx = to_double(ptoks[3], "pin dx");
        cdy = to_double(ptoks[4], "pin dy");
      }
      const Cell& cell = design.cells[static_cast<std::size_t>(it->second)];
      design.connect(it->second, net, cell.width * 0.5 + cdx,
                     cell.height * 0.5 + cdy);
    }
  }
}

void parse_wts(const std::string& path, Design& design) {
  std::map<std::string, NetId> net_by_name;
  for (NetId n = 0; n < static_cast<NetId>(design.nets.size()); ++n) {
    net_by_name[design.nets[static_cast<std::size_t>(n)].name] = n;
  }
  for (const std::string& line : read_payload_lines(path)) {
    auto toks = split_ws(line);
    if (toks.size() != 2) continue;
    const auto it = net_by_name.find(toks[0]);
    if (it != net_by_name.end()) {
      design.nets[static_cast<std::size_t>(it->second)].weight =
          to_double(toks[1], "net weight");
    }
  }
}

void parse_pl(const std::string& path, Design& design,
              const std::map<std::string, CellId>& by_name) {
  for (const std::string& line : read_payload_lines(path)) {
    auto toks = split_ws(line);
    if (toks.size() < 3) continue;
    const auto it = by_name.find(toks[0]);
    if (it == by_name.end()) {
      throw BookshelfError(".pl references unknown cell " + toks[0]);
    }
    Cell& cell = design.cells[static_cast<std::size_t>(it->second)];
    cell.x = to_double(toks[1], "pl x");
    cell.y = to_double(toks[2], "pl y");
    for (const std::string& t : toks) {
      if (t == "/FIXED" && cell.kind == CellKind::kMovable) {
        cell.kind = cell.area() > 0.0 ? CellKind::kMacro : CellKind::kTerminal;
      }
    }
  }
}

void parse_scl(const std::string& path, Design& design) {
  const auto lines = read_payload_lines(path);
  std::size_t i = 0;
  while (i < lines.size()) {
    if (!starts_with(lines[i], "CoreRow")) {
      ++i;
      continue;
    }
    Row row;
    ++i;
    for (; i < lines.size() && !starts_with(lines[i], "End"); ++i) {
      auto toks = split_ws(lines[i]);
      // Lines like "Coordinate : 459", "SubrowOrigin : 459 NumSites : 10692"
      for (std::size_t t = 0; t + 2 <= toks.size(); ++t) {
        if (iequals(toks[t], "Coordinate") && t + 2 < toks.size()) {
          row.y = to_double(toks[t + 2], "row coordinate");
        } else if (iequals(toks[t], "Height") && t + 2 < toks.size()) {
          row.height = to_double(toks[t + 2], "row height");
        } else if (iequals(toks[t], "Sitewidth") && t + 2 < toks.size()) {
          row.site_width = to_double(toks[t + 2], "site width");
        } else if (iequals(toks[t], "SubrowOrigin") && t + 2 < toks.size()) {
          row.x_lo = to_double(toks[t + 2], "subrow origin");
        } else if (iequals(toks[t], "NumSites") && t + 2 < toks.size()) {
          row.num_sites = to_int(toks[t + 2], "num sites");
        }
      }
    }
    if (i < lines.size()) ++i;  // consume "End"
    design.rows.push_back(row);
  }
  if (design.rows.empty()) throw BookshelfError("no CoreRow in " + path);
}

void parse_route(const std::string& path, Design& design) {
  // We extract the capacity-defining entries and synthesize a layer stack.
  std::vector<double> vcap, hcap, min_width, min_spacing;
  for (const std::string& line : read_payload_lines(path)) {
    auto toks = split_ws(line);
    if (toks.size() < 3 || toks[1] != ":") continue;
    auto values = [&](std::vector<double>& out) {
      out.clear();
      for (std::size_t t = 2; t < toks.size(); ++t) {
        out.push_back(to_double(toks[t], "route value"));
      }
    };
    if (iequals(toks[0], "VerticalCapacity")) values(vcap);
    else if (iequals(toks[0], "HorizontalCapacity")) values(hcap);
    else if (iequals(toks[0], "MinWireWidth")) values(min_width);
    else if (iequals(toks[0], "MinWireSpacing")) values(min_spacing);
  }
  if (vcap.empty() || hcap.empty()) return;
  design.tech.layers.clear();
  for (std::size_t l = 0; l < vcap.size(); ++l) {
    const bool horizontal = hcap[l] > 0.0;
    const bool vertical = vcap[l] > 0.0;
    if (!horizontal && !vertical) continue;
    MetalLayer layer;
    layer.name = "M" + std::to_string(l + 1);
    layer.dir = horizontal ? RouteDir::kHorizontal : RouteDir::kVertical;
    layer.wire_width = l < min_width.size() ? min_width[l] : 1.0;
    layer.wire_spacing = l < min_spacing.size() ? min_spacing[l] : 1.0;
    design.tech.layers.push_back(layer);
  }
}

}  // namespace

Design read_bookshelf(const std::string& aux_path) {
  const AuxFiles files = parse_aux(aux_path);
  Design design;
  design.name = fs::path(aux_path).stem().string();
  std::map<std::string, CellId> by_name;
  parse_nodes(files.nodes, design, by_name);
  parse_nets(files.nets, design, by_name);
  if (!files.wts.empty() && fs::exists(files.wts)) parse_wts(files.wts, design);
  parse_pl(files.pl, design, by_name);
  parse_scl(files.scl, design);
  if (!files.route.empty() && fs::exists(files.route)) {
    parse_route(files.route, design);
  }

  // Derive technology + die from the rows.
  const Row& r0 = design.rows.front();
  design.tech.site_width = r0.site_width;
  design.tech.row_height = r0.height;
  if (design.tech.layers.empty()) {
    design.tech = Technology::make_default(r0.site_width, r0.height);
  }
  Rect die;
  for (const Row& row : design.rows) {
    die.include({row.x_lo, row.y});
    die.include({row.x_hi(), row.y + row.height});
  }
  design.die = die;
  const std::string problem = design.validate();
  if (!problem.empty()) {
    throw BookshelfError(aux_path + ": invalid design: " + problem);
  }
  return design;
}

void write_pl(const Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw BookshelfError("cannot write " + path);
  out << "UCLA pl 1.0\n\n";
  for (const Cell& c : design.cells) {
    // Round-trip formatting: write -> read -> write is byte-stable and
    // the parsed coordinates are bit-equal to the placed ones.
    out << c.name << ' ' << format_double_roundtrip(c.x) << ' '
        << format_double_roundtrip(c.y) << " : N";
    if (!c.movable()) out << " /FIXED";
    out << '\n';
  }
}

void read_pl_into(Design& design, const std::string& path) {
  std::map<std::string, CellId> by_name;
  for (CellId c = 0; c < static_cast<CellId>(design.cells.size()); ++c) {
    by_name[design.cells[static_cast<std::size_t>(c)].name] = c;
  }
  for (const std::string& line : read_payload_lines(path)) {
    auto toks = split_ws(line);
    if (toks.size() < 3) continue;
    const auto it = by_name.find(toks[0]);
    if (it == by_name.end()) throw BookshelfError("unknown cell " + toks[0]);
    Cell& cell = design.cells[static_cast<std::size_t>(it->second)];
    cell.x = to_double(toks[1], "pl x");
    cell.y = to_double(toks[2], "pl y");
  }
}

void write_bookshelf(const Design& design, const std::string& prefix) {
  const fs::path base(prefix);
  const std::string stem = base.filename().string();
  std::size_t num_terminals = 0;
  for (const Cell& c : design.cells) {
    if (!c.movable()) ++num_terminals;
  }

  {
    std::ofstream out(prefix + ".aux");
    if (!out) throw BookshelfError("cannot write " + prefix + ".aux");
    out << "RowBasedPlacement : " << stem << ".nodes " << stem << ".nets "
        << stem << ".pl " << stem << ".scl " << stem << ".route\n";
  }
  {
    std::ofstream out(prefix + ".nodes");
    out << "UCLA nodes 1.0\n\n";
    out << "NumNodes : " << design.cells.size() << '\n';
    out << "NumTerminals : " << num_terminals << '\n';
    for (const Cell& c : design.cells) {
      out << '\t' << c.name << '\t' << format_double_roundtrip(c.width)
          << '\t' << format_double_roundtrip(c.height);
      if (c.kind == CellKind::kMacro) out << "\tterminal";
      if (c.kind == CellKind::kTerminal) out << "\tterminal_NI";
      out << '\n';
    }
  }
  {
    std::ofstream out(prefix + ".nets");
    out << "UCLA nets 1.0\n\n";
    out << "NumNets : " << design.nets.size() << '\n';
    out << "NumPins : " << design.pins.size() << '\n';
    for (const Net& net : design.nets) {
      out << "NetDegree : " << net.pins.size() << ' ' << net.name << '\n';
      for (PinId pid : net.pins) {
        const Pin& p = design.pins[static_cast<std::size_t>(pid)];
        const Cell& c = design.cells[static_cast<std::size_t>(p.cell)];
        out << '\t' << c.name << "\tB : "
            << format_double_roundtrip(p.dx - c.width * 0.5) << ' '
            << format_double_roundtrip(p.dy - c.height * 0.5) << '\n';
      }
    }
  }
  write_pl(design, prefix + ".pl");
  {
    std::ofstream out(prefix + ".scl");
    out << "UCLA scl 1.0\n\n";
    out << "NumRows : " << design.rows.size() << '\n';
    for (const Row& row : design.rows) {
      out << "CoreRow Horizontal\n";
      out << "  Coordinate : " << format_double_roundtrip(row.y) << '\n';
      out << "  Height : " << format_double_roundtrip(row.height) << '\n';
      out << "  Sitewidth : " << format_double_roundtrip(row.site_width)
          << '\n';
      out << "  Sitespacing : " << format_double_roundtrip(row.site_width)
          << '\n';
      out << "  Siteorient : N\n";
      out << "  Sitesymmetry : Y\n";
      out << "  SubrowOrigin : " << format_double_roundtrip(row.x_lo)
          << "  NumSites : " << row.num_sites << '\n';
      out << "End\n";
    }
  }
  {
    std::ofstream out(prefix + ".route");
    out << "route 1.0\n\n";
    std::ostringstream v, h, w, s;
    for (const MetalLayer& layer : design.tech.layers) {
      v << ' ' << (layer.dir == RouteDir::kVertical ? layer.pitch() : 0.0);
      h << ' ' << (layer.dir == RouteDir::kHorizontal ? layer.pitch() : 0.0);
      w << ' ' << layer.wire_width;
      s << ' ' << layer.wire_spacing;
    }
    out << "VerticalCapacity :" << v.str() << '\n';
    out << "HorizontalCapacity :" << h.str() << '\n';
    out << "MinWireWidth :" << w.str() << '\n';
    out << "MinWireSpacing :" << s.str() << '\n';
  }
}

}  // namespace puffer
