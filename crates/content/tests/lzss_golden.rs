//! Pins the raw LZSS stream (`compress::compress`, the `LZS1` framing
//! without the `Algorithm` tag) for a fixed corpus. The match tables are
//! scratch state and may change shape; the stream they produce may not.

use content::compress::{compress, decompress};
use content::ChunkId;

fn xorshift_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 56) as u8
        })
        .collect()
}

#[test]
fn lzss_stream_is_byte_identical_to_the_pinned_one() {
    let corpus: [(&str, Vec<u8>, usize, &str); 4] = [
        (
            "empty",
            vec![],
            8,
            "e0af383f704edb8057cac91789cfcd6a0c7b2570",
        ),
        (
            "one byte",
            vec![0x5a],
            10,
            "a78783ae4874e75290445e3fa6b461e7a1da6130",
        ),
        (
            "4 KiB random",
            xorshift_bytes(4096, 0x5eed),
            4616,
            "31a53db6339bab5cd5d48eaf291cfddb44195c93",
        ),
        (
            "512 KiB generate_default",
            workload::content_gen::generate_default(512 * 1024, 7),
            499_612,
            "b12dd443d675e83be885cf5c4ff00d5ee1a26c6f",
        ),
    ];
    // Several inputs through one thread, large before small and back:
    // whatever an earlier call leaves in the scratch tables must not leak
    // into a later stream.
    for &i in &[3usize, 0, 1, 2, 3, 2, 1, 0] {
        let (name, data, len, digest) = &corpus[i];
        let stream = compress(data);
        assert_eq!(decompress(&stream).unwrap(), *data, "{name}: round trip");
        assert_eq!(
            (stream.len(), ChunkId::of(&stream).to_string().as_str()),
            (*len, *digest),
            "{name}: LZSS stream changed"
        );
    }
}
