//! Mixed-rate packing: the permutation does not depend on a state's
//! rate, so one batch's one-shot hashes and stream operations share
//! simulator passes whatever their `SpongeParams`. These tests count
//! the passes through `MetricsSnapshot::simulator_passes` and check
//! every output byte against `krv-sha3`.

use krv_service::{HashRequest, Service, ServiceConfig, StreamRequest};
use krv_sha3::{
    ReferenceBackend, Sha3_224, Sha3_256, Sha3_384, Sha3_512, Shake128, Shake256, Sponge,
    SpongeParams, SpongeState,
};
use std::time::Duration;

/// `sn × workers` slots and a window far longer than any test, so each
/// batch closes exactly when the queue fills every slot.
fn packed_config(sn: usize, workers: usize) -> ServiceConfig {
    ServiceConfig {
        sn,
        workers,
        max_wait: Duration::from_secs(5),
        ..ServiceConfig::default()
    }
}

#[test]
fn eight_one_block_hashes_over_six_functions_take_two_passes() {
    let service = Service::start(packed_config(4, 2));
    // Every message fits one block of the narrowest rate (SHA3-512's
    // 72 bytes) and every XOF output fits one squeeze block, so each
    // request costs exactly one permutation.
    let message = |i: u8| -> Vec<u8> { (0..40 + i).map(|b| b.wrapping_mul(i + 3)).collect() };
    let cases: Vec<(HashRequest, Vec<u8>)> = (0..8u8)
        .map(|i| {
            let m = message(i);
            match i % 6 {
                0 => (
                    HashRequest::new(m.clone(), SpongeParams::sha3(224), 28),
                    Sha3_224::digest(&m).to_vec(),
                ),
                1 => (
                    HashRequest::sha3_256(m.clone()),
                    Sha3_256::digest(&m).to_vec(),
                ),
                2 => (
                    HashRequest::new(m.clone(), SpongeParams::sha3(384), 48),
                    Sha3_384::digest(&m).to_vec(),
                ),
                3 => (
                    HashRequest::new(m.clone(), SpongeParams::sha3(512), 64),
                    Sha3_512::digest(&m).to_vec(),
                ),
                4 => (
                    HashRequest::shake128(m.clone(), 32),
                    Shake128::digest(&m, 32),
                ),
                _ => (
                    HashRequest::new(m.clone(), SpongeParams::shake(256), 32),
                    Shake256::digest(&m, 32),
                ),
            }
        })
        .collect();
    let tickets: Vec<_> = cases
        .iter()
        .map(|(request, _)| service.submit(request.clone()).expect("admitted"))
        .collect();
    for (i, (ticket, (_, expected))) in tickets.into_iter().zip(&cases).enumerate() {
        let completion = ticket.wait();
        assert_eq!(
            &completion.result.expect("served"),
            expected,
            "request #{i}"
        );
        assert_eq!(completion.timing.batch_size, 8, "one batch of eight");
    }
    let report = service.shutdown();
    assert_eq!(report.batches, 1);
    assert_eq!(report.completed, 8);
    // Eight states over SN = 4 is ⌈8/4⌉ = 2 passes; one group per
    // parameter set would take six.
    assert_eq!(report.simulator_passes, 2, "all six rates packed together");
}

#[test]
fn a_stream_absorb_and_a_hash_share_one_pass() {
    let service = Service::start(packed_config(2, 1));
    let params = SpongeParams::shake(256);
    let chunk: Vec<u8> = (0..200u16).map(|i| (i * 7 % 256) as u8).collect();
    let message = b"riding with a stream".to_vec();
    let absorb = service
        .submit_stream(StreamRequest::absorb(
            Box::new(SpongeState::new(params)),
            chunk.clone(),
        ))
        .expect("admitted");
    let hash = service
        .submit(HashRequest::new(
            message.clone(),
            SpongeParams::sha3(512),
            64,
        ))
        .expect("admitted");

    let hashed = hash.wait();
    assert_eq!(hashed.result.expect("served"), Sha3_512::digest(&message));
    assert_eq!(hashed.timing.batch_size, 2, "same batch");
    let absorbed = absorb.wait();
    assert_eq!(absorbed.timing.batch_size, 2, "same batch");
    let state = absorbed.result.expect("absorbed").state;
    let mut expected = SpongeState::new(params);
    expected.absorb_with(&mut ReferenceBackend::new(), &chunk);
    assert_eq!(*state, expected, "advanced state is byte-exact");
    let mut sponge = Sponge::from_state(*state, ReferenceBackend::new());
    sponge.finalize_absorb();
    assert_eq!(sponge.squeeze(64), Shake256::digest(&chunk, 64));

    let report = service.shutdown();
    assert_eq!(report.batches, 1);
    assert_eq!(report.stream_ops, 1);
    assert_eq!(report.completed, 2);
    // The absorb's first block and the hash's padded block are both
    // owed in the first round: one SN = 2 pass carries them.
    assert_eq!(report.simulator_passes, 1);
}

#[test]
fn a_one_block_shake128_output_takes_one_pass() {
    // 168 bytes is exactly one SHAKE128 rate block: the padded block's
    // permutation yields all of it; the next block's is never paid.
    let service = Service::start(packed_config(1, 1));
    let message = b"one whole rate block of output".to_vec();
    let completion = service
        .submit(HashRequest::shake128(message.clone(), 168))
        .expect("admitted")
        .wait();
    assert_eq!(
        completion.result.expect("served"),
        Shake128::digest(&message, 168)
    );
    let report = service.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.simulator_passes, 1);
}
