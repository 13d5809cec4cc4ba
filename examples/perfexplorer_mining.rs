//! PerfExplorer data mining (paper §5.3, Figure 3) — experiment E4.
//!
//! Reproduces the sPPM analysis: a large trial whose threads fall into a
//! small number of hardware-counter behaviour classes (the structure Ahn &
//! Vetter reported) is clustered by the PerfExplorer analysis handlers,
//! the clusters are summarized, and the results are saved back into the
//! database through the PerfDMF API.
//!
//! The sPPM dataset is synthetic with *planted* classes, so the example
//! can verify the recovered clustering against ground truth (adjusted
//! Rand index).
//!
//! Run with: `cargo run --example perfexplorer_mining`

use perfdmf::analysis::adjusted_rand_index;
use perfdmf::core::DatabaseSession;
use perfdmf::db::Connection;
use perfdmf::explorer::{handle, install, ClusterMethod, FeatureSpace, Request, Response};
use perfdmf::workload::SppmModel;

fn main() {
    // ---- generate and store the sPPM-like trial ----
    let threads = 512usize;
    let model = SppmModel::default_classes(1973);
    let (profile, truth) = model.generate(threads, &[0.55, 0.30, 0.15]);
    println!(
        "sPPM-like trial: {threads} threads × {} PAPI metrics, {} planted classes",
        profile.metrics().len(),
        3
    );

    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let trial_id = session.store_profile("sppm", "counters", &profile).unwrap();

    // ---- install the analysis-result tables (Figure 3) ----
    install(&conn).expect("analysis schema");
    let counters = |method| Request::ClusterTrial {
        trial_id,
        features: FeatureSpace::MetricsOfEvent("sppm_timestep".into()),
        k: None,
        max_k: 6,
        pca_components: 0,
        method,
    };

    // ---- request cluster analysis on the FP-operations metric ----
    // Cluster threads by their full 7-counter vectors at the timestep
    // event — the feature space of the Ahn & Vetter analysis.
    let response = handle(&conn, &counters(ClusterMethod::KMeans));
    let Response::Clustering {
        settings_id,
        k,
        assignments,
        summaries,
        silhouette,
        columns,
    } = response
    else {
        panic!("unexpected response: {response:?}");
    };
    println!("\ncluster analysis of trial {trial_id} on the PAPI counter vectors:");
    println!("  silhouette-selected k = {k} (score {silhouette:.3})");
    for s in &summaries {
        let c0 = columns.first().map(String::as_str).unwrap_or("");
        println!(
            "  cluster {}: {:>4} threads, mean {c0} = {:.3e}",
            s.cluster,
            s.size,
            s.centroid.first().copied().unwrap_or(0.0)
        );
    }

    // ---- verify against the planted ground truth ----
    let ari = adjusted_rand_index(&assignments, &truth);
    println!("\nadjusted Rand index vs planted classes: {ari:.3}");
    assert!(
        ari > 0.95,
        "clustering failed to recover the planted sPPM behaviour classes"
    );

    // ---- correlate the PAPI counters (Ahn & Vetter's other lens) ----
    if let Response::Correlation {
        metrics, matrix, ..
    } = handle(
        &conn,
        &Request::CorrelateMetrics {
            trial_id,
            event: "sppm_timestep".into(),
        },
    ) {
        println!("\nPAPI counter correlations (|r| > 0.8):");
        for i in 0..metrics.len() {
            for j in (i + 1)..metrics.len() {
                if matrix[i][j].abs() > 0.8 {
                    println!(
                        "  {} ~ {}: r = {:+.3}",
                        metrics[i], metrics[j], matrix[i][j]
                    );
                }
            }
        }
    }

    // ---- cross-check with the second mining method ----
    if let Response::Clustering {
        k: hk,
        assignments: h_assignments,
        ..
    } = handle(&conn, &counters(ClusterMethod::Hierarchical))
    {
        let agreement = adjusted_rand_index(&assignments, &h_assignments);
        println!("\nhierarchical clustering agrees with k-means: k = {hk}, ARI = {agreement:.3}");
    }

    // ---- browse the stored results, as the PerfExplorer client would ----
    if let Response::Stored { method, rows } = handle(&conn, &Request::FetchResult { settings_id })
    {
        let assignments = rows.iter().filter(|(t, _, _, _)| t == "assignment").count();
        let centroids = rows.iter().filter(|(t, _, _, _)| t == "centroid").count();
        println!(
            "\nresults stored via the PerfDMF API: method={method}, \
             {assignments} assignment rows, {centroids} centroid rows"
        );
    }

    println!("\n(cluster analysis recovered the planted FP-behaviour classes — the §5.3 result)");
}
