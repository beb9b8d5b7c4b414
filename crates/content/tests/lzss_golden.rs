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

#[test]
fn bulk_upload_chunks_compress_to_the_pinned_streams() {
    // The sixteen 512 KiB chunks of `stackbench`'s `bulk_upload` base file,
    // as the encoder before PR 17 framed them: (stream length, stream
    // digest). These are the bytes that workload's upload counts are made of.
    const PINNED: [(usize, &str); 16] = [
        (507596, "4e2b404cea86dc15422c932529e655f19227c817"),
        (524637, "d79354925eea1cc07fdb4a799f49cd9185c8506e"),
        (485456, "e39aea3b65434c101ec8281cd4e7992c04342808"),
        (504381, "d4a388c8c16729667846fb512d676b55a8f05136"),
        (480751, "9f4dc7f890c75f4129521238af9f0179b34af814"),
        (504468, "4bc6cdfbe8cca6231ddd9f79f646ddeffeec2202"),
        (497101, "19c9af45c5d5e9dd97bbf1d101fc8cf7374bb2d9"),
        (489420, "d22b4bde5b4fd4e7d84e7cd704cc0af6b4e2b980"),
        (513953, "ba8100b919f73729e80cc2050ee474bc43f80d1f"),
        (503123, "c32d9e517d9e3c44b616ff0d1b9ca18051bc905e"),
        (507253, "59f4bf77db8126935d95c0c39cdcb9d7e91a6071"),
        (496726, "86dc12f9e8a7cf6fccfe414c90e0f90c195777d1"),
        (491777, "6c6e0888ee1c467b63327a2e80969ed633caa7f2"),
        (508701, "796fc152e4c2c4b1708fe2d9bb1397cd1d198f04"),
        (495638, "75fa43d1896d44ff120a6f02e5079ac8a6861b41"),
        (487187, "ef6c9a92a5dd8ccb767d4770b3ae621a0fd67d94"),
    ];
    let file = workload::content_gen::generate_default(8 << 20, 0x8_0000);
    for (i, chunk) in file.chunks(content::DEFAULT_CHUNK_SIZE).enumerate() {
        let stream = compress(chunk);
        assert_eq!(
            (stream.len(), ChunkId::of(&stream).to_string().as_str()),
            PINNED[i],
            "chunk {i}: LZSS stream changed"
        );
    }
}
