package repro.core

import repro.h3.HexGrid
import scala.collection.mutable

/** A* search over the motion graph (paper §3.3): finds the path between
  * two cells minimizing the number of cell transitions, with transition
  * frequency as a tie-break so that among equally short paths the most
  * travelled one wins ("reveals the most frequent path").
  *
  * Edge cost = hex distance of the transition (>= 1) plus an epsilon
  * penalty shrinking with the transition count; the heuristic is the hex
  * grid distance to the goal, which never exceeds the summed hex
  * distances along any path (triangle inequality) — admissible.
  *
  * `search` is the one shortest-path loop of the repository: HABIT runs it
  * over cells, GTI over raw training points with metre costs.
  */
object AStar {

  /** Shortest cell path from `start` to `goal`, inclusive of both; None if
    * the goal is unreachable in the graph.
    */
  def shortestPath(g: MotionGraph, start: Long, goal: Long): Option[IndexedSeq[Long]] =
    search[Long](start, goal, HexGrid.gridDistance(_, goal).toDouble) { (cell, relax) =>
      g.adjacency.getOrElse(cell, IndexedSeq.empty).foreach(e => relax(e.to, edgeCost(e)))
    }

  /** Hex-distance edge cost with a frequency tie-break epsilon. */
  def edgeCost(e: GraphEdge): Double =
    math.max(1, e.dist).toDouble + 0.001 / (1.0 + e.transitions.toDouble)

  /** Best-first search for the cheapest path from `start` to `goal`,
    * inclusive of both; None if the goal is unreachable. `edges(n, relax)`
    * calls `relax(target, cost)` for each out-edge of `n`, costs >= 0; `h`
    * must never overestimate the remaining cost to `goal`. The queue is
    * ordered by f = cost so far + `h` alone, so the order in which `edges`
    * reports targets decides between equally cheap paths. HABIT's graph
    * keeps each node's out-edges sorted by target cell id, so its choice
    * among equally cheap paths depends on the graph alone, not on the
    * order in which Spark returned the edges.
    */
  def search[N](start: N, goal: N, h: N => Double)(
      edges: (N, (N, Double) => Unit) => Unit): Option[IndexedSeq[N]] = {
    if (start == goal) return Some(IndexedSeq(start))
    val dist  = mutable.Map(start -> 0.0)
    val prev  = mutable.Map.empty[N, N]
    val done  = mutable.Set.empty[N]
    val queue = mutable.PriorityQueue((start, h(start)))(Ordering.by[(N, Double), Double](_._2).reverse)
    while (queue.nonEmpty) {
      val (cur, _) = queue.dequeue()
      if (cur == goal) {
        val path = mutable.ArrayBuffer(goal)
        while (path.last != start) path += prev(path.last)
        return Some(path.reverse.toIndexedSeq)
      }
      if (!done.contains(cur)) {
        done += cur
        val base = dist(cur)
        edges(cur, (to, cost) =>
          if (!done.contains(to)) {
            val cand = base + cost
            if (cand < dist.getOrElse(to, Double.PositiveInfinity)) {
              dist(to) = cand
              prev(to) = cur
              queue.enqueue((to, cand + h(to)))
            }
          })
      }
    }
    None
  }
}
