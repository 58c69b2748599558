package repro.jobs

import repro.exp.{Prep, Tables}

/** spark-submit entrypoint reproducing Table 3 (effect of RDP tolerance on
  * imputed trajectories, DAN dataset, 60-min gaps).
  */
object Table3Simplification {
  def main(args: Array[String]): Unit = {
    val spark = Prep.session("table3-simplification")
    Tables.printTable3(Tables.table3(Prep.dan(spark)))
    spark.stop()
  }
}
