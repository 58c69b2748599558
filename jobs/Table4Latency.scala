package repro.jobs

import repro.exp.{Prep, Tables}

/** spark-submit entrypoint reproducing Table 4 (average and maximum
  * imputation query latency) plus the Figure 5 accuracy comparison, on
  * KIEL and SAR with 60-minute gaps.
  */
object Table4Latency {
  def main(args: Array[String]): Unit = {
    val spark = Prep.session("table4-latency")
    Tables.printTable4(Tables.table4(Seq(Prep.kiel(spark), Prep.sar(spark))))
    spark.stop()
  }
}
