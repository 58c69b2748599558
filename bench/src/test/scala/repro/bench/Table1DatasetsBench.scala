package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exp.Tables

/** Reproduces Table 1 — characteristics of the AIS datasets — for the
  * synthetic analogues. Paper values are printed alongside for diffing;
  * ours are ~10–20x smaller by design (see EXPERIMENTS.md).
  */
class Table1DatasetsBench extends AnyFunSuite {
  import BenchData._

  test("Table 1: dataset characteristics") {
    val rows = Tables.table1(Seq(dan, kiel, sar))
    Tables.printTable1(rows)
    rows.foreach(r => assert(r.positions > 0 && r.trips > 0 && r.ships > 0))

    // Shape assertions mirroring the paper's dataset design:
    val Seq(danRow, kielRow, sarRow) = rows
    assert(kielRow.ships == 2)
    assert(danRow.ships == 16)
    assert(sarRow.ships > 50, s"SAR should have a large fleet, got ${sarRow.ships}")
    // SAR has many short trips; DAN has long ones.
    val avgDan = danRow.positions.toDouble / danRow.trips
    val avgSar = sarRow.positions.toDouble / sarRow.trips
    assert(avgDan > avgSar, "DAN trips should be longer than SAR trips on average")
  }
}
