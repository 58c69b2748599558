package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Tables

/** Reproduces Table 3 — effect of RDP simplification tolerance t on the
  * imputed trajectories over the DAN dataset: average position count,
  * average/maximum rate of turn, and number of turns exceeding 45°, for
  * r in {9, 10} and t in {0, 100, 250, 500, 1000}, plus the Original row.
  *
  * Reproduction target (shape): t=0 has the most positions and the most
  * abrupt >45° turns; growing t monotonically shrinks the position count
  * and (from t >= 250) suppresses >45° turns; the original trajectories
  * have many more positions and a low average rate of turn.
  */
class Table3SimplificationBench extends AnyFunSuite {
  import BenchData._

  test("Table 3: effect of simplification on the imputed trajectories") {
    val table = Tables.table3(dan)
    assert(table.gaps > 0, "no eligible 60-min gaps in the DAN test split")
    Tables.printTable3(table)

    val rows = table.byRes
    for (byRes <- rows) {
      // Position count decreases monotonically with tolerance.
      val cnts = byRes.map(_.cnt)
      assert(cnts.zip(cnts.tail).forall { case (a, b) => a >= b }, s"cnt not monotone: $cnts")
      // Abrupt (>45 deg) turns at t=1000 are rarer than at t=0.
      assert(byRes.last.over45 <= byRes.head.over45, s">45 turns not reduced: $byRes")
    }
    // r=10 unsimplified paths carry more positions than r=9 (finer grid).
    assert(rows(1).head.cnt > rows(0).head.cnt)
    // Original trajectories have (much) more positions than imputed+simplified.
    assert(table.original.cnt > rows(0).map(_.cnt).min)
  }
}
