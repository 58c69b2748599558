package repro.exp

import org.scalatest.funsuite.AnyFunSuite
import repro.SparkSpec

/** Runs every paper table on tiny datasets (each with at least one
  * 60-minute gap): the row labels are the paper's, every value is finite
  * and the Table 1–3 printers find the paper's value for every row. The
  * benches check the shapes at bench scale.
  */
class TablesSpec extends AnyFunSuite with SparkSpec {

  private lazy val dan  = Prep.dan(spark, 12)
  private lazy val kiel = Prep.kiel(spark, 6)
  private lazy val sar  = Prep.sar(spark, 30, 10)

  private def finite(xs: Double*): Boolean = xs.forall(java.lang.Double.isFinite)

  test("table1: one row per dataset") {
    val rows = Tables.table1(Seq(dan, kiel, sar))
    assert(rows.map(_.name) == Seq("DAN", "KIEL", "SAR"))
    assert(rows.forall(r => finite(r.sizeMb) && r.positions > 0 && r.trips > 0 && r.ships > 0))
    Tables.printTable1(rows)
  }

  test("table2: HABIT r=6..10, then three GTI rows") {
    val rows = Tables.table2(kiel, sar)
    assert(rows.map(r => (r.method, r.config)) ==
      (6 to 10).map(r => ("HABIT", s"r = $r")) ++
      Seq("1e-4", "5e-4", "1e-3").map(rd => ("GTI", s"rd = $rd")))
    assert(rows.forall(r => finite(r.kielMb, r.sarMb)))
    Tables.printTable2(rows)
  }

  test("table3: ten (r, t) rows, then Original") {
    val table = Tables.table3(dan)
    assert(table.gaps > 0)
    assert(table.rows.map(r => (r.r, r.t)) ==
      (for (r <- Seq("9", "10"); t <- Seq("0", "100", "250", "500", "1000")) yield (r, t)) :+
      ("Original", "-"))
    assert(table.rows.forall(r => finite(r.cnt, r.avgRot, r.maxRot, r.over45)))
    Tables.printTable3(table)
  }

  test("table4: four HABIT, three GTI and one SLI row per dataset") {
    val tables = Tables.table4(Seq(kiel, sar))
    assert(tables.map(_.dataset) == Seq("KIEL", "SAR"))
    for (t <- tables) {
      assert(t.gaps > 0, t.dataset)
      assert(t.rows.map(_.method) == Seq.fill(4)("HABIT") ++ Seq.fill(3)("GTI") :+ "SLI")
      assert(t.habit.map(_.config) == Seq("r=9 t=100", "r=9 t=250", "r=10 t=100", "r=10 t=250"))
      assert(t.gti.map(_.config.split(' ').last) == Seq("rd=1e-4", "rd=5e-4", "rd=1e-3"))
      for (row <- t.rows; res = row.res) {
        assert(res.nGaps == t.gaps)
        assert(finite(res.meanDtw, res.medianDtw, res.avgLatency, res.maxLatency), s"${t.dataset} $row")
      }
    }
    Tables.printTable4(tables)
  }
}
