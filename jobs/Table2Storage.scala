package repro.jobs

import repro.exp.{Prep, Tables}

/** spark-submit entrypoint reproducing Table 2 (framework storage size in
  * MB) for HABIT r=6..10 and GTI rd={1e-4,5e-4,1e-3} on KIEL and SAR.
  */
object Table2Storage {
  def main(args: Array[String]): Unit = {
    val spark = Prep.session("table2-storage")
    Tables.printTable2(Tables.table2(Prep.kiel(spark), Prep.sar(spark)))
    spark.stop()
  }
}
