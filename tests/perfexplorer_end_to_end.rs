//! Experiment E4 (paper §5.3): PerfExplorer data mining on an sPPM-like
//! dataset — the analysis handlers' clustering recovers the planted
//! behaviour classes and results persist through the PerfDMF API.

use perfdmf::analysis::adjusted_rand_index;
use perfdmf::core::DatabaseSession;
use perfdmf::db::{Connection, Value};
use perfdmf::explorer::{handle, install, ClusterMethod, FeatureSpace, Request, Response};
use perfdmf::workload::SppmModel;

/// K-means clustering of a trial's threads by their hardware-counter
/// vectors at one event, with silhouette-selected k.
fn cluster_counters(trial_id: i64, event: &str, max_k: usize) -> Request {
    Request::ClusterTrial {
        trial_id,
        features: FeatureSpace::MetricsOfEvent(event.into()),
        k: None,
        max_k,
        pca_components: 0,
        method: ClusterMethod::KMeans,
    }
}

#[test]
fn sppm_clusters_recovered_and_persisted() {
    let model = SppmModel::default_classes(7);
    let (profile, truth) = model.generate(256, &[0.5, 0.3, 0.2]);
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let trial = session.store_profile("sppm", "counters", &profile).unwrap();

    install(&conn).unwrap();
    let Response::Clustering {
        settings_id,
        k,
        assignments,
        summaries,
        ..
    } = handle(&conn, &cluster_counters(trial, "sppm_timestep", 6))
    else {
        panic!("clustering failed");
    };
    assert_eq!(k, 3, "silhouette should find the 3 planted classes");
    let ari = adjusted_rand_index(&assignments, &truth);
    assert!(ari > 0.95, "ARI {ari}");
    assert_eq!(summaries.iter().map(|s| s.size).sum::<usize>(), 256);

    // results persisted under analysis_settings/analysis_result
    let n: i64 = conn
        .query_scalar(
            "SELECT COUNT(*) FROM analysis_result WHERE settings = ?",
            &[Value::Int(settings_id)],
        )
        .unwrap()
        .as_int()
        .unwrap();
    assert!(
        n as usize >= 256 + 3,
        "assignments + summaries stored, got {n}"
    );

    // browse them back through the protocol
    match handle(&conn, &Request::FetchResult { settings_id }) {
        Response::Stored { method, rows } => {
            assert_eq!(method, "kmeans");
            let assigns: Vec<usize> = rows
                .iter()
                .filter(|(t, _, _, _)| t == "assignment")
                .map(|(_, _, v, _)| *v as usize)
                .collect();
            assert_eq!(assigns.len(), 256);
            assert_eq!(adjusted_rand_index(&assigns, &truth), 1.0);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn pca_reduction_preserves_cluster_structure() {
    let model = SppmModel::default_classes(21);
    let (profile, truth) = model.generate(192, &[0.4, 0.4, 0.2]);
    let conn = Connection::open_in_memory();
    let mut session = DatabaseSession::new(conn.clone()).unwrap();
    let trial = session.store_profile("sppm", "pca", &profile).unwrap();
    install(&conn).unwrap();
    // cluster in a 2-component PCA space instead of the raw 7-D space
    let resp = handle(
        &conn,
        &Request::ClusterTrial {
            trial_id: trial,
            features: FeatureSpace::MetricsOfEvent("sppm_timestep".into()),
            k: Some(3),
            max_k: 3,
            pca_components: 2,
            method: ClusterMethod::KMeans,
        },
    );
    let Response::Clustering { assignments, .. } = resp else {
        panic!("{resp:?}");
    };
    let ari = adjusted_rand_index(&assignments, &truth);
    assert!(ari > 0.9, "PCA-space ARI {ari}");
}

#[test]
fn analysis_results_survive_restart() {
    // Persistence path: cluster → checkpoint → reopen → fetch.
    let dir = std::env::temp_dir().join(format!(
        "pdmf_explorer_persist_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let settings_id;
    let truth;
    {
        let conn = Connection::open(&dir).unwrap();
        let mut session = DatabaseSession::new(conn.clone()).unwrap();
        let model = SppmModel::default_classes(3);
        let (profile, t) = model.generate(64, &[0.5, 0.25, 0.25]);
        truth = t;
        let trial = session.store_profile("sppm", "persist", &profile).unwrap();
        install(&conn).unwrap();
        let Response::Clustering {
            settings_id: sid, ..
        } = handle(&conn, &cluster_counters(trial, "sppm_timestep", 5))
        else {
            panic!("clustering failed");
        };
        settings_id = sid;
        conn.checkpoint().unwrap();
    }
    {
        let conn = Connection::open(&dir).unwrap();
        install(&conn).unwrap();
        match handle(&conn, &Request::FetchResult { settings_id }) {
            Response::Stored { rows, .. } => {
                let assigns: Vec<usize> = rows
                    .iter()
                    .filter(|(t, _, _, _)| t == "assignment")
                    .map(|(_, _, v, _)| *v as usize)
                    .collect();
                assert_eq!(assigns.len(), 64);
                assert!(adjusted_rand_index(&assigns, &truth) > 0.9);
            }
            other => panic!("{other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
