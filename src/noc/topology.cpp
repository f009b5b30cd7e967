#include "noc/topology.hpp"

#include <cstdlib>

namespace pap::noc {

std::string to_string(Direction d) {
  switch (d) {
    case Direction::kLocal:
      return "local";
    case Direction::kEast:
      return "east";
    case Direction::kWest:
      return "west";
    case Direction::kNorth:
      return "north";
    case Direction::kSouth:
      return "south";
  }
  return "?";
}

NodeId Mesh2D::neighbor(NodeId n, Direction d) const {
  const int x = x_of(n);
  const int y = y_of(n);
  switch (d) {
    case Direction::kEast:
      return node(x + 1, y);
    case Direction::kWest:
      return node(x - 1, y);
    case Direction::kNorth:
      return node(x, y + 1);
    case Direction::kSouth:
      return node(x, y - 1);
    case Direction::kLocal:
      return n;
  }
  PAP_CHECK(false);
  return n;
}

std::vector<Direction> Mesh2D::route(NodeId src, NodeId dst,
                                     RouteOrder order) const {
  std::vector<Direction> out;
  for (NodeId at = src;;) {
    const Direction d = next_hop(at, dst, order);
    out.push_back(d);
    if (d == Direction::kLocal) return out;
    at = neighbor(at, d);
  }
}

Direction Mesh2D::next_hop(NodeId at, NodeId dst, RouteOrder order) const {
  const int x = x_of(at);
  const int y = y_of(at);
  const int dx = x_of(dst);
  const int dy = y_of(dst);
  const bool x_first = order == RouteOrder::kXY;
  if (x != dx && (x_first || y == dy)) {
    return x < dx ? Direction::kEast : Direction::kWest;
  }
  if (y != dy) return y < dy ? Direction::kNorth : Direction::kSouth;
  return Direction::kLocal;
}

int Mesh2D::hop_count(NodeId src, NodeId dst) const {
  return std::abs(x_of(src) - x_of(dst)) + std::abs(y_of(src) - y_of(dst));
}

}  // namespace pap::noc
