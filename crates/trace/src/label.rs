//! The [`Label`] of a message: human-readable text, rendered when read.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use serde::{DeError, Deserialize, Json, Serialize};

/// The human-readable label of a message, as renderings of an execution
/// show it (e.g. `"SYNCH"` or `"echo(m3)"`). No checker inspects it.
///
/// A label holds nothing, text, or a shared handle to a wire payload whose
/// `Debug` rendering is its text. Hand-built and loaded traces hold text;
/// the simulator and the runtime hold the payload, so a send clones the
/// payload instead of formatting it, and the text is rendered only when
/// something reads it.
///
/// Every way to observe a label works from that text: [`Label::text`],
/// `PartialEq`/`Eq`, `Debug` (the text's `Debug`, as a `String` label
/// printed) and `Serialize` (a JSON string). So a text label and a payload
/// label with the same rendering compare equal and serialize identically,
/// and `Deserialize` yields text. Cloning a label bumps a reference count.
#[derive(Clone, Default)]
pub struct Label(Repr);

#[derive(Clone, Default)]
enum Repr {
    /// The empty label.
    #[default]
    Empty,
    /// Text, as given.
    Text(Arc<str>),
    /// A payload, rendered through its `Debug` impl when read.
    Payload(Arc<dyn fmt::Debug + Send + Sync>),
}

impl Label {
    /// A label whose text is `payload`'s `Debug` rendering, produced each
    /// time the label is read. The payload is never mutated afterwards, so
    /// every read renders the same text.
    #[must_use]
    pub fn debug_of<T: fmt::Debug + Send + Sync + 'static>(payload: T) -> Self {
        Self(Repr::Payload(Arc::new(payload)))
    }

    /// The label's text; a payload label renders it now.
    #[must_use]
    pub fn text(&self) -> Cow<'_, str> {
        match &self.0 {
            Repr::Empty => Cow::Borrowed(""),
            Repr::Text(text) => Cow::Borrowed(text),
            Repr::Payload(payload) => Cow::Owned(format!("{payload:?}")),
        }
    }
}

impl From<String> for Label {
    fn from(text: String) -> Self {
        Self(Repr::Text(text.into()))
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (Repr::Payload(a), Repr::Payload(b)) if Arc::ptr_eq(a, b) => true,
            _ => self.text() == other.text(),
        }
    }
}

impl Eq for Label {}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.text(), f)
    }
}

impl Serialize for Label {
    fn to_json(&self) -> Json {
        Json::Str(self.text().into_owned())
    }
}

impl Deserialize for Label {
    fn from_json(v: &Json) -> Result<Self, DeError> {
        String::from_json(v).map(Self::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload whose `Debug` rendering has structure and escaped quotes.
    fn echo() -> Label {
        Label::debug_of((3, Some("m\"1")))
    }

    const ECHO: &str = r#"(3, Some("m\"1"))"#;

    #[test]
    fn a_payload_label_renders_its_debug_text() {
        assert_eq!(echo().text(), ECHO);
        assert_eq!(Label::from("SYNCH".to_string()).text(), "SYNCH");
        assert_eq!(Label::default().text(), "");
    }

    #[test]
    fn text_and_payload_labels_with_one_rendering_are_equal() {
        let (text, payload) = (Label::from(ECHO.to_string()), echo());
        assert_eq!(text, payload);
        assert_eq!(payload, text);
        assert_eq!(payload, echo(), "two handles, one rendering");
        assert_eq!(payload, payload.clone(), "one shared handle");
        assert_eq!(Label::default(), Label::from(String::new()));
        assert_ne!(payload, Label::from("(3, None)".to_string()));
        assert_ne!(Label::default(), echo());
    }

    #[test]
    fn debug_prints_the_text_as_a_string_label_did() {
        assert_eq!(format!("{:?}", echo()), format!("{:?}", ECHO.to_string()));
        assert_eq!(format!("{:?}", Label::default()), "\"\"");
    }

    #[test]
    fn both_kinds_serialize_identically_and_round_trip_as_text() {
        let (text, payload) = (Label::from(ECHO.to_string()), echo());
        let json = serde_json::to_string(&payload).unwrap();
        assert_eq!(json, serde_json::to_string(&text).unwrap());
        assert_eq!(json, serde_json::to_string(&ECHO.to_string()).unwrap());
        let back: Label = serde_json::from_str(&json).unwrap();
        assert_eq!(back, payload);
        assert!(matches!(back.0, Repr::Text(_)), "deserializing yields text");
        let empty: Label = serde_json::from_str("\"\"").unwrap();
        assert_eq!(empty, Label::default());
    }
}
