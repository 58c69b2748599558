package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.h3.HexGrid

/** A* unit tests on hand-built graphs. Cells are encoded directly from
  * axial coordinates, so adjacency and distances are exact by design.
  */
class AStarSpec extends AnyFunSuite {

  private val Res = 8
  private def c(q: Int, r: Int): Long = HexGrid.encode(Res, q, r)

  private def graph(edges: Seq[(Long, Long, Long)]): MotionGraph = {
    val cells = edges.flatMap(e => Seq(e._1, e._2)).distinct
    val nodes = cells.map { cell =>
      val p = HexGrid.cellCenter(cell)
      cell -> GraphNode(cell, p.lat, p.lon, 10, 2)
    }.toMap
    val adj = edges.groupBy(_._1).map { case (from, es) =>
      from -> es.map(e => GraphEdge(e._1, e._2, e._3, HexGrid.gridDistance(e._1, e._2))).toIndexedSeq
    }
    new MotionGraph(Res, nodes, adj)
  }

  test("trivial: start equals goal") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5)))
    assert(AStar.shortestPath(g, c(0, 0), c(0, 0)) == Some(IndexedSeq(c(0, 0))))
  }

  test("straight chain is traversed end to end") {
    val chain = (0 until 5).map(i => (c(i, 0), c(i + 1, 0), 3L))
    val g = graph(chain)
    assert(AStar.shortestPath(g, c(0, 0), c(5, 0)) ==
      Some((0 to 5).map(i => c(i, 0)).toIndexedSeq))
  }

  test("shorter cell path wins over longer one") {
    // Direct 2-hop route vs a 4-hop detour.
    val g = graph(Seq(
      (c(0, 0), c(1, 0), 1), (c(1, 0), c(2, 0), 1),
      (c(0, 0), c(0, 1), 9), (c(0, 1), c(1, 1), 9), (c(1, 1), c(2, 1), 9), (c(2, 1), c(2, 0), 9)))
    assert(AStar.shortestPath(g, c(0, 0), c(2, 0)).get.size == 3)
  }

  test("among equal-length paths the more frequent one wins") {
    // (0,0) and (1,1) share two common neighbors: (1,0) and (0,1).
    val g = graph(Seq(
      (c(0, 0), c(1, 0), 100), (c(1, 0), c(1, 1), 100),
      (c(0, 0), c(0, 1), 1), (c(0, 1), c(1, 1), 1)))
    val p = AStar.shortestPath(g, c(0, 0), c(1, 1)).get
    assert(p == IndexedSeq(c(0, 0), c(1, 0), c(1, 1)))
  }

  test("unreachable goal yields None") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5)))
    assert(AStar.shortestPath(g, c(1, 0), c(0, 0)).isEmpty) // directed edge only
  }

  test("direction matters: edges are directed") {
    val g = graph(Seq((c(0, 0), c(1, 0), 5), (c(1, 0), c(0, 0), 5)))
    assert(AStar.shortestPath(g, c(1, 0), c(0, 0)).isDefined)
  }

  test("long-jump edges cost their hex distance, not one hop") {
    // A single 4-cell jump vs four 1-cell steps with huge frequency: the
    // step path and jump path tie on hex distance, frequency breaks it.
    val jump  = Seq((c(0, 0), c(4, 0), 1L))
    val steps = (0 until 4).map(i => (c(i, 0), c(i + 1, 0), 50L))
    val p = AStar.shortestPath(graph(jump ++ steps), c(0, 0), c(4, 0)).get
    assert(p.size == 5, s"expected the frequent stepped path, got $p")
  }

  test("cycles do not trap the search") {
    val g = graph(Seq(
      (c(0, 0), c(1, 0), 5), (c(1, 0), c(0, 0), 5),
      (c(1, 0), c(2, 0), 5), (c(2, 0), c(1, 0), 5)))
    assert(AStar.shortestPath(g, c(0, 0), c(2, 0)).get.size == 3)
  }

  // Generic search over Int nodes: 0 <-> 1 form a cycle, 2 has no in-edges.
  private def intEdges(n: Int, relax: (Int, Double) => Unit): Unit =
    Map(0 -> Seq(1 -> 1.0), 1 -> Seq(0 -> 1.0), 2 -> Seq(0 -> 1.0)).getOrElse(n, Nil)
      .foreach { case (to, cost) => relax(to, cost) }
  private val noHeuristic = (_: Int) => 0.0

  test("generic search: start equals goal, and a two-hop path") {
    assert(AStar.search(1, 1, noHeuristic)(intEdges) == Some(IndexedSeq(1)))
    assert(AStar.search(2, 1, noHeuristic)(intEdges) == Some(IndexedSeq(2, 0, 1)))
  }

  test("generic search: unreachable goal yields None") {
    assert(AStar.search(0, 2, noHeuristic)(intEdges).isEmpty)
    assert(AStar.search(1, 3, noHeuristic)(intEdges).isEmpty) // goal not in the graph
  }

  test("edgeCost decreases with frequency but stays above hex distance") {
    val lo = AStar.edgeCost(GraphEdge(c(0, 0), c(1, 0), 1, 1))
    val hi = AStar.edgeCost(GraphEdge(c(0, 0), c(1, 0), 1000, 1))
    assert(lo > hi && hi > 1.0)
    assert(AStar.edgeCost(GraphEdge(c(0, 0), c(3, 0), 1, 3)) > 3.0)
  }

  test("search over a larger lattice finds a geodesic-length path") {
    // Full 10x10 axial lattice with unit-frequency neighbor edges.
    val edges = for {
      q <- 0 until 10; r <- 0 until 10
      (dq, dr) <- Seq((1, 0), (0, 1), (1, -1), (-1, 0), (0, -1), (-1, 1))
      if q + dq >= 0 && q + dq < 10 && r + dr >= 0 && r + dr < 10
    } yield (c(q, r), c(q + dq, r + dr), 2L)
    val g = graph(edges)
    val p = AStar.shortestPath(g, c(0, 0), c(9, 9)).get
    assert(p.size - 1 == HexGrid.gridDistance(c(0, 0), c(9, 9)))
  }
}
