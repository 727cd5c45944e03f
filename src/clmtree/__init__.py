"""Crossing-tree and quadratic-variation tests for the continuous
martingale hypothesis."""

from .calibrate import (
    CalibrationResult,
    delta_exact,
    delta_mc,
    delta_ou,
)
from .critical_values import (
    CriticalValueTable,
    generate_cv_table,
    load_all_tables,
    load_table,
    lookup_cv,
    save_table,
    shipped_table,
)
from .dist_tests import (
    chi2_geometric_test,
    g_test,
    klp_nb_test,
    ks_discrete_test,
    twos_test,
)
from .harness import (
    ALL_TESTS,
    LevelReport,
    QvStudyReport,
    StudyConfig,
    StudyReport,
    analyze_dataset,
    analyze_series,
    render_report,
    run_power_study,
    run_qv_study,
    run_type1_study,
)
from .indep_tests import (
    indicator_of_twos,
    joint_dist_test,
    lag1_autocorr_test,
    larsen_test,
    obrien76_test,
    obrien_dyck85_test,
    wald_wolfowitz_runs,
)
from .outcomes import BitSequence, TestOutcome, ZSample
from .qv import (
    NormalizedIncrements,
    QvPath,
    estimate_qv,
    normal_gof_tests,
    select_increment,
    time_change_increments,
)
from .series import (
    TickSeries,
    load_ticks,
    log_transform,
    save_ticks,
)
from .simulate import (
    ProcessSpec,
    expected_crossing_time,
    fgn,
    hitting_prob,
    simulate_fbm_path,
)
from .tree import (
    CrossingTree,
    build_tree,
    export_tree,
    level_stats,
    multiple_crossing_shares,
    select_base_scale,
)

__version__ = "0.1.0"
