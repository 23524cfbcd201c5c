// Golden fixture: `MiningOutcome` producers that honour the partial-
// result contract — building a StageReport, touching `stages`, or
// delegating to a governed helper.

fn builds_report(rows: &[u32]) -> MiningOutcome<Vec<u32>> {
    let mut report = StageReport::default();
    report.note_rows(rows.len());
    MiningOutcome::complete_with(rows.to_vec(), report)
}

fn touches_stages(rows: &[u32], outcome: &mut MiningOutcome<u32>) -> MiningOutcome<u32> {
    outcome.stages.push(rows.len() as u32);
    outcome.clone()
}

fn delegates_to_governed(rows: &[u32], token: &CancelToken) -> MiningOutcome<Vec<u32>> {
    mine_level_governed(rows, token)
}

fn no_outcome_no_obligation(rows: &[u32]) -> Vec<u32> {
    rows.to_vec()
}
