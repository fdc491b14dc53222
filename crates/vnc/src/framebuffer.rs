//! RGB565 framebuffer with tile-level change tracking.

use aroma_sim::rng::fnv1a;

/// Tile edge length in pixels (16×16, as in VNC's hextile encoding).
pub const TILE: usize = 16;

/// An axis-aligned pixel rectangle. It may extend past the screen edge;
/// consumers clip it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rect {
    /// Left edge, pixels.
    pub x: usize,
    /// Top edge, pixels.
    pub y: usize,
    /// Width, pixels.
    pub w: usize,
    /// Height, pixels.
    pub h: usize,
}

impl Rect {
    /// The rectangle at `(x, y)` of size `w`×`h`.
    pub const fn new(x: usize, y: usize, w: usize, h: usize) -> Self {
        Rect { x, y, w, h }
    }
}

/// A 16-bit RGB565 framebuffer.
#[derive(Clone, Debug, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    pixels: Vec<u16>,
}

impl Framebuffer {
    /// Black framebuffer of the given dimensions (must be multiples of
    /// [`TILE`], which every real mode of the era was).
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "degenerate framebuffer");
        assert!(
            width.is_multiple_of(TILE) && height.is_multiple_of(TILE),
            "dimensions must be multiples of the {TILE}px tile"
        );
        Framebuffer {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Tile columns.
    pub fn tiles_x(&self) -> usize {
        self.width / TILE
    }

    /// Tile rows.
    pub fn tiles_y(&self) -> usize {
        self.height / TILE
    }

    /// Total tile count.
    pub fn tile_count(&self) -> usize {
        self.tiles_x() * self.tiles_y()
    }

    /// Read one pixel.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u16 {
        self.pixels[y * self.width + x]
    }

    /// Write one pixel.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u16) {
        self.pixels[y * self.width + x] = v;
    }

    /// Fill an axis-aligned rectangle (clipped to the framebuffer).
    pub fn fill_rect(&mut self, x: usize, y: usize, w: usize, h: usize, v: u16) {
        let x1 = (x + w).min(self.width);
        let y1 = (y + h).min(self.height);
        for yy in y.min(self.height)..y1 {
            let row = yy * self.width;
            self.pixels[row + x.min(self.width)..row + x1].fill(v);
        }
    }

    /// Fill the whole screen.
    pub fn clear(&mut self, v: u16) {
        self.pixels.fill(v);
    }

    /// Copy the pixels of tile `(tx, ty)` into `out` (row-major,
    /// `TILE*TILE` entries).
    pub fn read_tile(&self, tx: usize, ty: usize, out: &mut [u16]) {
        debug_assert_eq!(out.len(), TILE * TILE);
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        for row in 0..TILE {
            let src = (y0 + row) * self.width + x0;
            out[row * TILE..(row + 1) * TILE].copy_from_slice(&self.pixels[src..src + TILE]);
        }
    }

    /// Write `data` (row-major `TILE*TILE` pixels) into tile `(tx, ty)`.
    pub fn write_tile(&mut self, tx: usize, ty: usize, data: &[u16]) {
        debug_assert_eq!(data.len(), TILE * TILE);
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        for row in 0..TILE {
            let dst = (y0 + row) * self.width + x0;
            self.pixels[dst..dst + TILE].copy_from_slice(&data[row * TILE..(row + 1) * TILE]);
        }
    }

    /// Content hash of tile `(tx, ty)` (FNV-1a over its pixel bytes).
    pub fn tile_hash(&self, tx: usize, ty: usize) -> u64 {
        let x0 = tx * TILE;
        let y0 = ty * TILE;
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for row in 0..TILE {
            let src = (y0 + row) * self.width + x0;
            for &px in &self.pixels[src..src + TILE] {
                // Inline FNV over the two bytes of each pixel.
                for b in px.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100_0000_01B3);
                }
            }
        }
        h
    }

    /// Hashes of every tile, row-major.
    pub fn tile_hashes(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.tile_count());
        self.tile_hashes_into(&mut out);
        out
    }

    /// [`Framebuffer::tile_hashes`] into a caller-owned vector (cleared
    /// first), so a hot render loop can recycle the allocation.
    pub fn tile_hashes_into(&self, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.tile_count());
        for ty in 0..self.tiles_y() {
            for tx in 0..self.tiles_x() {
                out.push(self.tile_hash(tx, ty));
            }
        }
    }

    /// Indices (row-major, ascending, no duplicates) of the tiles that any
    /// of `rects` touches after clipping to the screen, into a
    /// caller-owned vector (cleared first). Empty rects touch nothing.
    pub fn tiles_touched_into(&self, rects: &[Rect], out: &mut Vec<usize>) {
        out.clear();
        let tiles_x = self.tiles_x();
        for r in rects {
            let x1 = r.x.saturating_add(r.w).min(self.width);
            let y1 = r.y.saturating_add(r.h).min(self.height);
            if r.x >= x1 || r.y >= y1 {
                continue;
            }
            for ty in r.y / TILE..y1.div_ceil(TILE) {
                out.extend((r.x / TILE..x1.div_ceil(TILE)).map(|tx| ty * tiles_x + tx));
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Indices (row-major) of tiles whose hash differs from `prev`
    /// (`prev.len()` must equal [`Framebuffer::tile_count`]).
    pub fn dirty_tiles(&self, prev: &[u64]) -> Vec<usize> {
        assert_eq!(prev.len(), self.tile_count(), "hash vector shape mismatch");
        self.tile_hashes()
            .iter()
            .enumerate()
            .filter(|(i, h)| prev[*i] != **h)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whole-screen content digest.
    pub fn digest(&self) -> u64 {
        let mut bytes = Vec::with_capacity(self.pixels.len() * 2);
        for &px in &self.pixels {
            bytes.extend_from_slice(&px.to_le_bytes());
        }
        fnv1a(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_geometry() {
        let fb = Framebuffer::new(640, 480);
        assert_eq!(fb.width(), 640);
        assert_eq!(fb.height(), 480);
        assert_eq!(fb.tiles_x(), 40);
        assert_eq!(fb.tiles_y(), 30);
        assert_eq!(fb.tile_count(), 1200);
    }

    #[test]
    #[should_panic(expected = "multiples")]
    fn non_tile_multiple_rejected() {
        Framebuffer::new(641, 480);
    }

    #[test]
    fn pixel_round_trip() {
        let mut fb = Framebuffer::new(64, 32);
        fb.set(63, 31, 0xF800);
        assert_eq!(fb.get(63, 31), 0xF800);
        assert_eq!(fb.get(0, 0), 0);
    }

    #[test]
    fn fill_rect_clips() {
        let mut fb = Framebuffer::new(32, 32);
        fb.fill_rect(24, 24, 100, 100, 7);
        assert_eq!(fb.get(31, 31), 7);
        assert_eq!(fb.get(23, 23), 0);
    }

    #[test]
    fn tile_read_write_round_trip() {
        let mut fb = Framebuffer::new(64, 64);
        let data: Vec<u16> = (0..TILE * TILE).map(|i| i as u16).collect();
        fb.write_tile(2, 3, &data);
        let mut out = vec![0u16; TILE * TILE];
        fb.read_tile(2, 3, &mut out);
        assert_eq!(out, data);
        // Neighbouring tile untouched.
        fb.read_tile(1, 3, &mut out);
        assert!(out.iter().all(|&v| v == 0));
    }

    #[test]
    fn tile_hash_detects_single_pixel_change() {
        let mut fb = Framebuffer::new(64, 64);
        let before = fb.tile_hash(1, 1);
        fb.set(TILE + 5, TILE + 9, 1);
        assert_ne!(fb.tile_hash(1, 1), before);
        // Other tiles unaffected.
        assert_eq!(fb.tile_hash(0, 0), Framebuffer::new(64, 64).tile_hash(0, 0));
    }

    #[test]
    fn dirty_tiles_exactly_the_changed_ones() {
        let mut fb = Framebuffer::new(64, 64);
        let prev = fb.tile_hashes();
        fb.set(0, 0, 9); // tile 0
        fb.set(40, 40, 9); // tile (2,2) = index 2*4+2 = 10
        let dirty = fb.dirty_tiles(&prev);
        assert_eq!(dirty, vec![0, 10]);
    }

    #[test]
    fn clear_dirties_everything_once() {
        let mut fb = Framebuffer::new(64, 64);
        let prev = fb.tile_hashes();
        fb.clear(0xFFFF);
        assert_eq!(fb.dirty_tiles(&prev).len(), fb.tile_count());
        let now = fb.tile_hashes();
        assert!(fb.dirty_tiles(&now).is_empty());
    }

    #[test]
    fn digest_reflects_content() {
        let mut a = Framebuffer::new(32, 32);
        let b = Framebuffer::new(32, 32);
        assert_eq!(a.digest(), b.digest());
        a.set(5, 5, 1);
        assert_ne!(a.digest(), b.digest());
    }
}
